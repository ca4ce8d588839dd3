package valbench

import "dedisys/internal/expr"

// The study's constraint set, available in three forms so every approach
// checks the same conditions (§2.3.1's comparison conditions):
//
//   - compiled closures (handcrafted/contract/interceptor/repository),
//   - interpreted expression trees (the tool-generated analogue),
//   - repository registrations keyed by (class, method, kind).

// Kind is a constraint category with the §2.3.1 trigger rules: preconditions
// before the method, postconditions after it, invariants before and after
// every public method.
type Kind int

// Constraint kinds.
const (
	PreCheck Kind = iota + 1
	PostCheck
	InvCheck
)

// Invocation is the generic invocation record the repository approaches
// extract from an intercepted call (runtime slice R3).
type Invocation struct {
	Class  string
	Method string
	Target any
	Args   []int
	Pre    map[string]int // @pre captures for postconditions
}

// CompiledCheck is one constraint in compiled form.
type CompiledCheck struct {
	Name string
	Kind Kind
	// Capture snapshots @pre values for postconditions (nil otherwise).
	Capture func(inv *Invocation)
	// Fn returns whether the constraint is satisfied.
	Fn func(inv *Invocation) bool
	// Src is the interpreted specification of the same condition.
	Src string

	expr expr.Expr
}

// envFor builds the interpreter environment of an invocation: every object
// attribute, argument, and @pre capture becomes a binding. This per-check
// materialisation is what tool-interpreted validation pays for (§2.3.2).
func envFor(inv *Invocation) expr.Env {
	env := make(expr.Env, 8+len(inv.Args)+len(inv.Pre))
	switch o := inv.Target.(type) {
	case *Employee:
		env["load"] = int64(o.Load)
		env["maxLoad"] = int64(o.MaxLoad)
		env["done"] = int64(o.Done)
		env["nameLen"] = int64(len(o.Name))
	case *Project:
		env["spent"] = int64(o.Spent)
		env["budget"] = int64(o.Budget)
		env["members"] = int64(o.Members)
		env["nameLen"] = int64(len(o.Name))
	}
	for i, a := range inv.Args {
		switch i {
		case 0:
			env["arg0"] = int64(a)
		case 1:
			env["arg1"] = int64(a)
		}
	}
	for k, v := range inv.Pre {
		env["old_"+k] = int64(v)
	}
	return env
}

// checkInterpreted evaluates the check's expression form.
func (c *CompiledCheck) checkInterpreted(inv *Invocation) bool {
	v, err := c.expr.Eval(envFor(inv))
	return err == nil && v != 0
}

func employee(inv *Invocation) *Employee { return inv.Target.(*Employee) }
func project(inv *Invocation) *Project   { return inv.Target.(*Project) }

// employeeInvariants are the Employee class invariants.
var employeeInvariants = []*CompiledCheck{
	{Name: "EmpLoadWithinCapacity", Kind: InvCheck, Src: "load <= maxLoad",
		Fn: func(inv *Invocation) bool { return employee(inv).Load <= employee(inv).MaxLoad }},
	{Name: "EmpLoadNonNegative", Kind: InvCheck, Src: "load >= 0",
		Fn: func(inv *Invocation) bool { return employee(inv).Load >= 0 }},
	{Name: "EmpDoneNonNegative", Kind: InvCheck, Src: "done >= 0",
		Fn: func(inv *Invocation) bool { return employee(inv).Done >= 0 }},
	{Name: "EmpNamed", Kind: InvCheck, Src: "nameLen > 0",
		Fn: func(inv *Invocation) bool { return len(employee(inv).Name) > 0 }},
	{Name: "EmpCapacityNonNegative", Kind: InvCheck, Src: "maxLoad >= 0",
		Fn: func(inv *Invocation) bool { return employee(inv).MaxLoad >= 0 }},
	{Name: "EmpTotalWorkSane", Kind: InvCheck, Src: "load + done >= 0",
		Fn: func(inv *Invocation) bool { e := employee(inv); return e.Load+e.Done >= 0 }},
	{Name: "EmpNameBounded", Kind: InvCheck, Src: "nameLen <= 64",
		Fn: func(inv *Invocation) bool { return len(employee(inv).Name) <= 64 }},
	{Name: "EmpLoadBounded", Kind: InvCheck, Src: "load <= maxLoad + done",
		Fn: func(inv *Invocation) bool { e := employee(inv); return e.Load <= e.MaxLoad+e.Done }},
}

// projectInvariants are the Project class invariants.
var projectInvariants = []*CompiledCheck{
	{Name: "ProjWithinBudget", Kind: InvCheck, Src: "spent <= budget",
		Fn: func(inv *Invocation) bool { return project(inv).Spent <= project(inv).Budget }},
	{Name: "ProjSpentNonNegative", Kind: InvCheck, Src: "spent >= 0",
		Fn: func(inv *Invocation) bool { return project(inv).Spent >= 0 }},
	{Name: "ProjMembersNonNegative", Kind: InvCheck, Src: "members >= 0",
		Fn: func(inv *Invocation) bool { return project(inv).Members >= 0 }},
	{Name: "ProjNamed", Kind: InvCheck, Src: "nameLen > 0",
		Fn: func(inv *Invocation) bool { return len(project(inv).Name) > 0 }},
	{Name: "ProjBudgetNonNegative", Kind: InvCheck, Src: "budget >= 0",
		Fn: func(inv *Invocation) bool { return project(inv).Budget >= 0 }},
	{Name: "ProjStaffedWhenSpending", Kind: InvCheck, Src: "spent == 0 || members >= 0",
		Fn: func(inv *Invocation) bool { p := project(inv); return p.Spent == 0 || p.Members >= 0 }},
	{Name: "ProjNameBounded", Kind: InvCheck, Src: "nameLen <= 64",
		Fn: func(inv *Invocation) bool { return len(project(inv).Name) <= 64 }},
	{Name: "ProjHeadroomSane", Kind: InvCheck, Src: "budget - spent >= 0",
		Fn: func(inv *Invocation) bool { p := project(inv); return p.Budget-p.Spent >= 0 }},
}

// preConditions keyed by class.method.
var preConditions = map[string][]*CompiledCheck{
	"Employee.SetMaxLoad": {{Name: "PreMaxLoadNonNegative", Kind: PreCheck, Src: "arg0 >= 0",
		Fn: func(inv *Invocation) bool { return inv.Args[0] >= 0 }}},
	"Employee.AssignHours": {{Name: "PreAssignPositive", Kind: PreCheck, Src: "arg0 > 0",
		Fn: func(inv *Invocation) bool { return inv.Args[0] > 0 }}},
	"Employee.CompleteHours": {{Name: "PreCompleteWithinLoad", Kind: PreCheck, Src: "arg0 > 0 && arg0 <= load",
		Fn: func(inv *Invocation) bool { return inv.Args[0] > 0 && inv.Args[0] <= employee(inv).Load }}},
	"Project.SetBudget": {{Name: "PreBudgetNonNegative", Kind: PreCheck, Src: "arg0 >= 0",
		Fn: func(inv *Invocation) bool { return inv.Args[0] >= 0 }}},
	"Project.Spend": {{Name: "PreSpendPositive", Kind: PreCheck, Src: "arg0 > 0",
		Fn: func(inv *Invocation) bool { return inv.Args[0] > 0 }}},
}

// postConditions keyed by class.method, with @pre captures.
var postConditions = map[string][]*CompiledCheck{
	"Employee.SetMaxLoad": {{Name: "PostMaxLoadSet", Kind: PostCheck, Src: "maxLoad == arg0",
		Fn: func(inv *Invocation) bool { return employee(inv).MaxLoad == inv.Args[0] }}},
	"Employee.AssignHours": {{Name: "PostLoadGrew", Kind: PostCheck, Src: "load == old_load + arg0",
		Capture: func(inv *Invocation) { inv.Pre["load"] = employee(inv).Load },
		Fn:      func(inv *Invocation) bool { return employee(inv).Load == inv.Pre["load"]+inv.Args[0] }}},
	"Employee.CompleteHours": {{Name: "PostDoneGrew", Kind: PostCheck, Src: "done == old_done + arg0",
		Capture: func(inv *Invocation) { inv.Pre["done"] = employee(inv).Done },
		Fn:      func(inv *Invocation) bool { return employee(inv).Done == inv.Pre["done"]+inv.Args[0] }}},
	"Project.SetBudget": {{Name: "PostBudgetSet", Kind: PostCheck, Src: "budget == arg0",
		Fn: func(inv *Invocation) bool { return project(inv).Budget == inv.Args[0] }}},
	"Project.Spend": {{Name: "PostSpentGrew", Kind: PostCheck, Src: "spent == old_spent + arg0",
		Capture: func(inv *Invocation) { inv.Pre["spent"] = project(inv).Spent },
		Fn:      func(inv *Invocation) bool { return project(inv).Spent == inv.Pre["spent"]+inv.Args[0] }}},
	"Project.AddMember": {{Name: "PostMemberAdded", Kind: PostCheck, Src: "members == old_members + 1",
		Capture: func(inv *Invocation) { inv.Pre["members"] = project(inv).Members },
		Fn:      func(inv *Invocation) bool { return project(inv).Members == inv.Pre["members"]+1 }}},
}

// classInvariants keyed by class.
var classInvariants = map[string][]*CompiledCheck{
	"Employee": employeeInvariants,
	"Project":  projectInvariants,
}

// classMethods lists the public methods of each class (invariant triggers).
var classMethods = map[string][]string{
	"Employee": {"SetMaxLoad", "AssignHours", "CompleteHours"},
	"Project":  {"SetBudget", "Spend", "AddMember"},
}

func init() {
	// Compile the interpreted form of every check once (the tool's
	// constraint-reading step).
	for _, checks := range [][]*CompiledCheck{employeeInvariants, projectInvariants} {
		for _, c := range checks {
			c.expr = expr.MustParse(c.Src)
		}
	}
	for _, table := range []map[string][]*CompiledCheck{preConditions, postConditions} {
		for _, checks := range table {
			for _, c := range checks {
				c.expr = expr.MustParse(c.Src)
			}
		}
	}
}
