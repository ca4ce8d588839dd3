package valbench

import (
	"errors"
	"fmt"
	"reflect"
)

// ErrCheckFailed reports a violated constraint during the scenario — the
// scenario is violation-free by construction (§2.3.1), so a failure means an
// approach diverged from the common semantics.
var ErrCheckFailed = errors.New("valbench: constraint check failed")

// Approach is one constraint validation strategy running the common
// scenario.
type Approach interface {
	// Name identifies the approach in reports.
	Name() string
	// Run executes the scenario on a fresh world and reports check counts.
	Run(spec Spec) (CheckCounts, error)
}

// runScenario drives the fixed business scenario through an approach's call
// function.
func runScenario(w *World, spec Spec, call func(target any, class, method string, arg int) error) error {
	for step := 0; step < spec.Steps; step++ {
		for _, e := range w.Employees {
			if err := call(e, "Employee", "SetMaxLoad", 100+step); err != nil {
				return err
			}
			if err := call(e, "Employee", "AssignHours", 3); err != nil {
				return err
			}
			if err := call(e, "Employee", "CompleteHours", 2); err != nil {
				return err
			}
		}
		for _, p := range w.Projects {
			if err := call(p, "Project", "SetBudget", 1<<20); err != nil {
				return err
			}
			if err := call(p, "Project", "Spend", 5); err != nil {
				return err
			}
			if err := call(p, "Project", "AddMember", 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// rawCall invokes the business method without any checks.
func rawCall(target any, method string, arg int) {
	switch t := target.(type) {
	case *Employee:
		switch method {
		case "SetMaxLoad":
			t.SetMaxLoad(arg)
		case "AssignHours":
			t.AssignHours(arg)
		case "CompleteHours":
			t.CompleteHours(arg)
		}
	case *Project:
		switch method {
		case "SetBudget":
			t.SetBudget(arg)
		case "Spend":
			t.Spend(arg)
		case "AddMember":
			t.AddMember()
		}
	}
}

// Baseline is the application without constraint checks (runtime slice R1).
type Baseline struct{}

// Name implements Approach.
func (Baseline) Name() string { return "no-checks" }

// Run implements Approach.
func (Baseline) Run(spec Spec) (CheckCounts, error) {
	w := NewWorld(spec.Employees, spec.Projects)
	err := runScenario(w, spec, func(target any, class, method string, arg int) error {
		rawCall(target, method, arg)
		return nil
	})
	return CheckCounts{}, err
}

// Handcrafted tangles the checks into the business code (§2.1.1): one big
// switch with inline if statements around the mutations.
type Handcrafted struct{}

// Name implements Approach.
func (Handcrafted) Name() string { return "handcrafted" }

// Run implements Approach.
func (Handcrafted) Run(spec Spec) (CheckCounts, error) {
	w := NewWorld(spec.Employees, spec.Projects)
	var counts CheckCounts
	empInv := func(e *Employee) bool {
		counts.Invariants += 8
		return e.Load <= e.MaxLoad && e.Load >= 0 && e.Done >= 0 && len(e.Name) > 0 &&
			e.MaxLoad >= 0 && e.Load+e.Done >= 0 && len(e.Name) <= 64 && e.Load <= e.MaxLoad+e.Done
	}
	projInv := func(p *Project) bool {
		counts.Invariants += 8
		return p.Spent <= p.Budget && p.Spent >= 0 && p.Members >= 0 && len(p.Name) > 0 &&
			p.Budget >= 0 && (p.Spent == 0 || p.Members >= 0) && len(p.Name) <= 64 && p.Budget-p.Spent >= 0
	}
	err := runScenario(w, spec, func(target any, class, method string, arg int) error {
		switch t := target.(type) {
		case *Employee:
			if !empInv(t) {
				return ErrCheckFailed
			}
			switch method {
			case "SetMaxLoad":
				counts.Pre++
				if arg < 0 {
					return ErrCheckFailed
				}
				t.MaxLoad = arg
				counts.Post++
				if t.MaxLoad != arg {
					return ErrCheckFailed
				}
			case "AssignHours":
				counts.Pre++
				if arg <= 0 {
					return ErrCheckFailed
				}
				old := t.Load
				t.Load += arg
				counts.Post++
				if t.Load != old+arg {
					return ErrCheckFailed
				}
			case "CompleteHours":
				counts.Pre++
				if arg <= 0 || arg > t.Load {
					return ErrCheckFailed
				}
				old := t.Done
				t.Load -= arg
				t.Done += arg
				counts.Post++
				if t.Done != old+arg {
					return ErrCheckFailed
				}
			}
			if !empInv(t) {
				return ErrCheckFailed
			}
		case *Project:
			if !projInv(t) {
				return ErrCheckFailed
			}
			switch method {
			case "SetBudget":
				counts.Pre++
				if arg < 0 {
					return ErrCheckFailed
				}
				t.Budget = arg
				counts.Post++
				if t.Budget != arg {
					return ErrCheckFailed
				}
			case "Spend":
				counts.Pre++
				if arg <= 0 {
					return ErrCheckFailed
				}
				old := t.Spent
				t.Spent += arg
				counts.Post++
				if t.Spent != old+arg {
					return ErrCheckFailed
				}
			case "AddMember":
				old := t.Members
				t.Members++
				counts.Post++
				if t.Members != old+1 {
					return ErrCheckFailed
				}
			}
			if !projInv(t) {
				return ErrCheckFailed
			}
		}
		return nil
	})
	return counts, err
}

// tableApproach factors the approaches that validate through the compiled
// check tables: they differ in how calls are intercepted, how the invocation
// record is extracted, and how affected checks are found.
type tableApproach struct {
	name string
	// dispatch invokes the business method through the approach's
	// interception mechanism (runtime slice R2).
	dispatch func(inv *Invocation)
	// find returns the affected checks (runtime slice R4); nil uses the
	// statically bound tables (compiled-in contract approach).
	find func(class, method string, kind Kind) []*CompiledCheck
	// interpreted switches check evaluation to the expression interpreter.
	interpreted bool
}

// Name implements Approach.
func (a *tableApproach) Name() string { return a.name }

// Run implements Approach.
func (a *tableApproach) Run(spec Spec) (CheckCounts, error) {
	w := NewWorld(spec.Employees, spec.Projects)
	var counts CheckCounts
	find := a.find
	if find == nil {
		find = staticFind
	}
	err := runScenario(w, spec, func(target any, class, method string, arg int) error {
		// Parameter extraction (R3): materialise the invocation record.
		inv := &Invocation{Class: class, Method: method, Target: target, Args: []int{arg}, Pre: make(map[string]int, 2)}

		invs := find(class, method, InvCheck)
		pres := find(class, method, PreCheck)
		posts := find(class, method, PostCheck)

		// Invariants before, preconditions, @pre captures.
		for _, c := range invs {
			counts.Invariants++
			if !a.eval(c, inv) {
				return fmt.Errorf("%w: %s", ErrCheckFailed, c.Name)
			}
		}
		for _, c := range pres {
			counts.Pre++
			if !a.eval(c, inv) {
				return fmt.Errorf("%w: %s", ErrCheckFailed, c.Name)
			}
		}
		for _, c := range posts {
			if c.Capture != nil {
				c.Capture(inv)
			}
		}

		a.dispatch(inv)

		// Postconditions and invariants after.
		for _, c := range posts {
			counts.Post++
			if !a.eval(c, inv) {
				return fmt.Errorf("%w: %s", ErrCheckFailed, c.Name)
			}
		}
		for _, c := range invs {
			counts.Invariants++
			if !a.eval(c, inv) {
				return fmt.Errorf("%w: %s", ErrCheckFailed, c.Name)
			}
		}
		return nil
	})
	return counts, err
}

func (a *tableApproach) eval(c *CompiledCheck, inv *Invocation) bool {
	if a.interpreted {
		return c.checkInterpreted(inv)
	}
	return c.Fn(inv)
}

// staticFind resolves checks through the statically bound tables (what a
// compiler-based tool bakes into the generated code).
func staticFind(class, method string, kind Kind) []*CompiledCheck {
	switch kind {
	case PreCheck:
		return preConditions[class+"."+method]
	case PostCheck:
		return postConditions[class+"."+method]
	default:
		return classInvariants[class]
	}
}

// inlineDispatch is the compiled-weaving mechanism (AspectJ analogue): a
// direct function call indirection.
func inlineDispatch(inv *Invocation) {
	rawCall(inv.Target, inv.Method, firstArg(inv))
}

func firstArg(inv *Invocation) int {
	if len(inv.Args) > 0 {
		return inv.Args[0]
	}
	return 0
}

// dynDispatch is the dynamic-proxy-framework mechanism (JBoss-AOP
// analogue): dispatch through a method-handle table.
var dynHandles = map[string]func(target any, arg int){
	"Employee.SetMaxLoad":    func(t any, a int) { t.(*Employee).SetMaxLoad(a) },
	"Employee.AssignHours":   func(t any, a int) { t.(*Employee).AssignHours(a) },
	"Employee.CompleteHours": func(t any, a int) { t.(*Employee).CompleteHours(a) },
	"Project.SetBudget":      func(t any, a int) { t.(*Project).SetBudget(a) },
	"Project.Spend":          func(t any, a int) { t.(*Project).Spend(a) },
	"Project.AddMember":      func(t any, a int) { t.(*Project).AddMember() },
}

func dynDispatch(inv *Invocation) {
	dynHandles[inv.Class+"."+inv.Method](inv.Target, firstArg(inv))
}

// proxyDispatch is the reflection mechanism (java.lang.reflect.Proxy
// analogue): the method is resolved and invoked via reflection.
func proxyDispatch(inv *Invocation) {
	m := reflect.ValueOf(inv.Target).MethodByName(inv.Method)
	if m.Type().NumIn() == 0 {
		m.Call(nil)
		return
	}
	m.Call([]reflect.Value{reflect.ValueOf(firstArg(inv))})
}

// NewContract returns the compiler-based approach (JML analogue): checks
// are bound at compile time, no repository search.
func NewContract() Approach {
	return &tableApproach{name: "contract", dispatch: inlineDispatch}
}

// NewInterceptorInline returns the interceptor-encoded approach (the
// AspectJ-Interceptor of §2.2.1): hand-written checks inside a woven
// interceptor, no invocation record, no repository.
func NewInterceptorInline() Approach { return interceptorInline{} }

// interceptorInline runs the handcrafted checks behind one function-value
// indirection — the compiled weaving.
type interceptorInline struct{}

// Name implements Approach.
func (interceptorInline) Name() string { return "aspect-interceptor" }

// Run implements Approach.
func (interceptorInline) Run(spec Spec) (CheckCounts, error) {
	// The woven advice is exactly the handcrafted check body, reached
	// through an interception indirection.
	var h Handcrafted
	return h.Run(spec)
}

// NewInterpreted returns the tool-interpreted approach (Dresden-OCL
// analogue): constraints parsed from their textual specification and
// evaluated by the expression interpreter on every check.
func NewInterpreted() Approach {
	return &tableApproach{name: "interpreted-ocl", dispatch: inlineDispatch, interpreted: true}
}

// NewDynRepo returns the closure-interception + repository approach
// (JBossAOP-Repository), optionally with the optimized (cached) repository.
func NewDynRepo(cached bool) Approach {
	repo := NewRepo(cached)
	name := "dynrepo"
	if cached {
		name = "dynrepo-opt"
	}
	return &tableApproach{name: name, dispatch: dynDispatch, find: repo.Lookup}
}

// NewProxyRepo returns the reflection + repository approach
// (Java-Proxy-Repository), optionally with the optimized repository.
func NewProxyRepo(cached bool) Approach {
	repo := NewRepo(cached)
	name := "proxyrepo"
	if cached {
		name = "proxyrepo-opt"
	}
	return &tableApproach{name: name, dispatch: proxyDispatch, find: repo.Lookup}
}

// NewInlineRepo returns the compiled-weaving + repository approach
// (AspectJ-Repository), optionally with the optimized repository. Its
// parameter extraction resolves the method reflectively — the costly
// Object.getClass().getMethod() of §2.3.2 — which is modelled by the
// extraction-aware slice runner and by this approach resolving the handle
// per call.
func NewInlineRepo(cached bool) Approach {
	repo := NewRepo(cached)
	name := "aspectrepo"
	if cached {
		name = "aspectrepo-opt"
	}
	return &tableApproach{
		name: name,
		dispatch: func(inv *Invocation) {
			// AspectJ-style extraction: the reflective method object is
			// resolved even though the call itself is woven inline.
			_, _ = reflect.TypeOf(inv.Target).MethodByName(inv.Method)
			inlineDispatch(inv)
		},
		find: repo.Lookup,
	}
}

// Approaches returns the full study set in presentation order.
func Approaches() []Approach {
	return []Approach{
		Baseline{},
		Handcrafted{},
		NewInterceptorInline(),
		NewContract(),
		NewDynRepo(true),
		NewProxyRepo(true),
		NewInlineRepo(true),
		NewDynRepo(false),
		NewProxyRepo(false),
		NewInlineRepo(false),
		NewInterpreted(),
	}
}
