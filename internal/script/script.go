// Package script implements a DedisysTest-style scenario driver (§5.1: "in
// order to ensure repeatability of the tests, we used the script-based
// DedisysTest application"). Scenarios are plain-text scripts that build a
// cluster, deploy declarative constraints, run business operations, inject
// failures, reconcile, and assert on the resulting state — making failure
// scenarios repeatable and reviewable.
//
// Script language (one command per line, '#' starts a comment):
//
//	cluster N [PROTOCOL|quorum=K] [detector[=fixed|phi]] [groups=G] [rf=R]
//	        [gossip=DUR|manual] [gossip-fanout=K]
//	    PROTOCOL is a name replication.ProtocolByName knows (p4,
//	    primary-backup, primary-partition, adaptive-voting, quorum, or an
//	    alias); quorum=K sets the quorum's commit threshold;
//	    detector runs heartbeat failure detection instead of the topology
//	    oracle: views lag real failures and scripts must 'sleep' or 'await'
//	    before asserting on modes; groups=G shards the object space across G
//	    replica groups of rf=R nodes each (default: full replication);
//	    gossip=DUR runs the anti-entropy loop every DUR, gossip=manual
//	    enables gossip but leaves rounds to the 'gossip' command
//	constraint NAME TYPE PRIORITY MINDEGREE EXPR...
//	    TYPE: PRE POST HARD SOFT ASYNC; PRIORITY: CRITICAL RELAXABLE;
//	    MINDEGREE: a satisfaction degree; EXPR: declarative expression over
//	    the Bean entity's attributes (see constraint.FromExpr)
//	create NODE ID attr=int ...
//	set NODE ID ATTR VALUE          business write (must succeed)
//	fail set NODE ID ATTR VALUE     business write (must be rejected)
//	expect NODE ID ATTR VALUE       assert an attribute value
//	threats NODE COUNT              assert the node's stored threat count
//	mode NODE healthy|degraded      assert the node's system mode
//	partition G1 | G2 [| G3 ...]    split the network (nodes per group)
//	heal                            repair all partitions
//	crash NODE / recover NODE       node failure and recovery
//	reconcile NODE [PEER ...]       run reconciliation (default: all others)
//	gossip NODE [PEER ...]          run one anti-entropy round from NODE
//	    (default: a random fanout of co-group peers; with PEERs, exchange
//	    with exactly those nodes) and print the per-peer outcome
//	sleep DURATION                  wait (e.g. 50ms; lets detectors observe)
//	await NODE healthy|degraded [TIMEOUT]
//	    poll until the node reaches the mode (default timeout 2s)
//	placement                       print the group→replica assignment
//	metric PREFIX                   print metrics whose name contains PREFIX
//	echo TEXT...                    print
package script

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"dedisys/internal/constraint"
	"dedisys/internal/core"
	"dedisys/internal/detect"
	"dedisys/internal/gossip"
	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/obs"
	"dedisys/internal/reconcile"
	"dedisys/internal/replication"
	"dedisys/internal/threat"
	"dedisys/internal/transport"
)

// beanClass is the entity class scenario scripts operate on.
const beanClass = "Bean"

// ErrAssertion reports a failed expect/threats/mode/fail assertion.
var ErrAssertion = errors.New("script: assertion failed")

// Command is one parsed script line.
type Command struct {
	Line int
	Op   string
	Args []string
}

// Parse reads a script.
func Parse(r io.Reader) ([]Command, error) {
	var cmds []Command
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		cmds = append(cmds, Command{Line: lineNo, Op: fields[0], Args: fields[1:]})
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("script: read: %w", err)
	}
	return cmds, nil
}

// Engine executes scenario scripts.
type Engine struct {
	Out io.Writer
	// Obs, when set before Run, is shared by the cluster the script builds;
	// callers dump its registry and trace after the run (--metrics/--trace).
	Obs *obs.Observer
	// Detect, when set before Run, makes 'cluster' build detector-driven
	// membership with this configuration even without a 'detector' token
	// (the CLI's -detector/-heartbeat-interval/-suspect-timeout flags).
	Detect *detect.Config
	// Protocol, when set before Run, is the replica-control protocol
	// 'cluster' defaults to when the script names none (the CLI's
	// -protocol/-quorum-threshold flags). Script tokens still win.
	Protocol replication.Protocol
	// Groups and ReplicationFactor, when set before Run, shard the object
	// space the way a script's groups=G/rf=R cluster tokens do (the CLI's
	// -groups/-replication-factor flags). Script tokens still win.
	Groups            int
	ReplicationFactor int
	// GossipInterval and GossipFanout, when set before Run, enable the
	// anti-entropy loop on 'cluster' nodes the way a script's gossip=DUR
	// token does (the CLI's -gossip-interval/-gossip-fanout flags). Script
	// tokens still win.
	GossipInterval time.Duration
	GossipFanout   int

	cluster     *node.Cluster
	constraints []constraint.Configured
}

// New creates an engine writing progress to out.
func New(out io.Writer) *Engine {
	return &Engine{Out: out}
}

// Run parses and executes a script.
func (e *Engine) Run(r io.Reader) error {
	cmds, err := Parse(r)
	if err != nil {
		return err
	}
	defer func() {
		if e.cluster != nil {
			e.cluster.Stop()
		}
	}()
	for _, cmd := range cmds {
		if err := e.exec(cmd); err != nil {
			return fmt.Errorf("line %d (%s): %w", cmd.Line, cmd.Op, err)
		}
		e.settle()
	}
	return nil
}

// settle joins the background straggler sends of threshold commits after
// every command, so scripted assertions observe a quiescent cluster even
// under the quorum protocol (a quorum 'set' returns before the last replica
// applied). A no-op under full-round protocols.
func (e *Engine) settle() {
	if e.cluster == nil {
		return
	}
	for _, n := range e.cluster.Nodes {
		if n.Repl != nil {
			n.Repl.WaitPropagation()
		}
	}
}

func (e *Engine) exec(cmd Command) error {
	switch cmd.Op {
	case "cluster":
		return e.cmdCluster(cmd.Args)
	case "constraint":
		return e.cmdConstraint(cmd.Args)
	case "create":
		return e.cmdCreate(cmd.Args)
	case "set":
		return e.cmdSet(cmd.Args, false)
	case "fail":
		if len(cmd.Args) < 1 || cmd.Args[0] != "set" {
			return errors.New("fail expects a 'set' command")
		}
		return e.cmdSet(cmd.Args[1:], true)
	case "expect":
		return e.cmdExpect(cmd.Args)
	case "threats":
		return e.cmdThreats(cmd.Args)
	case "mode":
		return e.cmdMode(cmd.Args)
	case "partition":
		return e.cmdPartition(cmd.Args)
	case "heal":
		e.cluster.Heal()
		return nil
	case "crash":
		if len(cmd.Args) != 1 {
			return errors.New("crash expects NODE")
		}
		e.cluster.Net.Crash(transport.NodeID(cmd.Args[0]))
		return nil
	case "recover":
		if len(cmd.Args) != 1 {
			return errors.New("recover expects NODE")
		}
		e.cluster.Net.Recover(transport.NodeID(cmd.Args[0]))
		return nil
	case "reconcile":
		return e.cmdReconcile(cmd.Args)
	case "gossip":
		return e.cmdGossip(cmd.Args)
	case "sleep":
		return e.cmdSleep(cmd.Args)
	case "await":
		return e.cmdAwait(cmd.Args)
	case "placement":
		return e.cmdPlacement()
	case "metric":
		return e.cmdMetric(cmd.Args)
	case "echo":
		fmt.Fprintln(e.Out, strings.Join(cmd.Args, " "))
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd.Op)
	}
}

// cmdPlacement prints the sharded group→replica assignment, or notes full
// replication when the cluster runs without a placement ring.
func (e *Engine) cmdPlacement() error {
	if err := e.needCluster(); err != nil {
		return err
	}
	if e.cluster.Ring == nil {
		fmt.Fprintln(e.Out, "full replication (no placement ring)")
		return nil
	}
	fmt.Fprint(e.Out, e.cluster.Ring.Describe())
	return nil
}

func (e *Engine) needCluster() error {
	if e.cluster == nil {
		return errors.New("no cluster (use 'cluster N' first)")
	}
	return nil
}

func (e *Engine) nodeByID(id string) (*node.Node, error) {
	if err := e.needCluster(); err != nil {
		return nil, err
	}
	n := e.cluster.ByID(transport.NodeID(id))
	if n == nil {
		return nil, fmt.Errorf("unknown node %q", id)
	}
	return n, nil
}

func (e *Engine) cmdCluster(args []string) error {
	if e.cluster != nil {
		return errors.New("cluster already built")
	}
	if len(args) < 1 {
		return errors.New("cluster expects a size")
	}
	size, err := strconv.Atoi(args[0])
	if err != nil || size < 1 {
		return fmt.Errorf("invalid cluster size %q", args[0])
	}
	proto := e.Protocol
	if proto == nil {
		proto = replication.PrimaryPerPartition{}
	}
	detectCfg := e.Detect
	groups, rf := e.Groups, e.ReplicationFactor
	var gossipCfg *gossip.Config
	if e.GossipInterval != 0 {
		gossipCfg = &gossip.Config{Interval: e.GossipInterval, Fanout: e.GossipFanout}
	}
	for _, a := range args[1:] {
		switch {
		case strings.HasPrefix(a, "quorum="):
			k, err := strconv.Atoi(strings.TrimPrefix(a, "quorum="))
			if err != nil || k < 1 {
				return fmt.Errorf("invalid quorum threshold %q", a)
			}
			proto = replication.Quorum{Threshold: k}
		case a == "detector" || a == "detector=fixed":
			if detectCfg == nil {
				detectCfg = &detect.Config{}
			}
		case a == "detector=phi":
			if detectCfg == nil {
				detectCfg = &detect.Config{}
			}
			cfg := *detectCfg
			cfg.Policy = detect.PhiAccrual{}
			detectCfg = &cfg
		case strings.HasPrefix(a, "groups="):
			g, err := strconv.Atoi(strings.TrimPrefix(a, "groups="))
			if err != nil || g < 1 {
				return fmt.Errorf("invalid group count %q", a)
			}
			groups = g
		case strings.HasPrefix(a, "rf="):
			r, err := strconv.Atoi(strings.TrimPrefix(a, "rf="))
			if err != nil || r < 1 {
				return fmt.Errorf("invalid replication factor %q", a)
			}
			rf = r
		case a == "gossip=manual":
			if gossipCfg == nil {
				gossipCfg = &gossip.Config{}
			}
			gossipCfg.Manual = true
		case strings.HasPrefix(a, "gossip="):
			d, err := time.ParseDuration(strings.TrimPrefix(a, "gossip="))
			if err != nil || d <= 0 {
				return fmt.Errorf("invalid gossip interval %q", a)
			}
			if gossipCfg == nil {
				gossipCfg = &gossip.Config{}
			}
			gossipCfg.Interval = d
			gossipCfg.Manual = false
		case strings.HasPrefix(a, "gossip-fanout="):
			k, err := strconv.Atoi(strings.TrimPrefix(a, "gossip-fanout="))
			if err != nil || k < 1 {
				return fmt.Errorf("invalid gossip fanout %q", a)
			}
			if gossipCfg == nil {
				gossipCfg = &gossip.Config{Manual: true}
			}
			gossipCfg.Fanout = k
		default:
			p, err := replication.ProtocolByName(a, 0)
			if err != nil {
				return fmt.Errorf("unknown cluster option %q", a)
			}
			proto = p
		}
	}
	c, err := node.NewCluster(size, nil, func(o *node.Options) {
		o.RepoCache = true
		o.Protocol = proto
		o.ThreatPolicy = threat.IdenticalOnce
		o.Obs = e.Obs
		o.Detect = detectCfg
		o.Groups = groups
		o.ReplicationFactor = rf
		o.Gossip = gossipCfg
	})
	if err != nil {
		return err
	}
	schema := object.NewSchema(beanClass)
	// "Set" alone does not match the Set<Attr> naming convention; declare
	// its kind explicitly.
	schema.DefineKind("Set", object.Write, func(ent *object.Entity, args []any) (any, error) {
		attr, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("script: Set expects an attribute name")
		}
		ent.Set(attr, args[1])
		return nil, nil
	})
	schema.Define("Get", func(ent *object.Entity, args []any) (any, error) {
		return ent.MustGet(args[0].(string)), nil
	})
	for _, n := range c.Nodes {
		n.RegisterSchema(schema)
		if err := n.DeployConstraints(e.constraints); err != nil {
			return err
		}
	}
	e.cluster = c
	desc := proto.Name()
	if c.Ring != nil {
		desc = fmt.Sprintf("%s, %d groups x %d replicas", desc, c.Ring.Groups(), c.Ring.ReplicationFactor())
	}
	if gossipCfg != nil {
		gm := c.Node(0).Gossip
		if gossipCfg.Manual {
			desc = fmt.Sprintf("%s, manual gossip fanout %d", desc, gm.Fanout())
		} else {
			desc = fmt.Sprintf("%s, gossip every %s fanout %d", desc, gm.Interval(), gm.Fanout())
		}
	}
	if detectCfg != nil {
		d := c.Node(0).Detector
		fmt.Fprintf(e.Out, "cluster of %d nodes (%s, %s detector, interval %s)\n",
			size, desc, d.Policy().Name(), d.Interval())
	} else {
		fmt.Fprintf(e.Out, "cluster of %d nodes (%s)\n", size, desc)
	}
	return nil
}

func (e *Engine) cmdConstraint(args []string) error {
	if len(args) < 5 {
		return errors.New("constraint expects NAME TYPE PRIORITY MINDEGREE EXPR")
	}
	ctype, err := constraint.ParseType(args[1])
	if err != nil {
		return err
	}
	prio, err := constraint.ParsePriority(args[2])
	if err != nil {
		return err
	}
	min, err := constraint.ParseDegree(args[3])
	if err != nil {
		return err
	}
	src := strings.Join(args[4:], " ")
	impl, err := constraint.FromExpr(src)
	if err != nil {
		return err
	}
	cfg := constraint.Configured{
		Meta: constraint.Meta{
			Name:         args[0],
			Type:         ctype,
			Priority:     prio,
			MinDegree:    min,
			NeedsContext: true,
			ContextClass: beanClass,
			Description:  src,
			Affected: []constraint.AffectedMethod{
				{Class: beanClass, Method: "Set", Prep: constraint.CalledObjectIsContext{}},
			},
		},
		Impl: impl,
	}
	e.constraints = append(e.constraints, cfg)
	if e.cluster != nil {
		for _, n := range e.cluster.Nodes {
			if err := n.DeployConstraints([]constraint.Configured{cfg}); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(e.Out, "constraint %s: %s\n", args[0], src)
	return nil
}

func (e *Engine) cmdCreate(args []string) error {
	if len(args) < 2 {
		return errors.New("create expects NODE ID [attr=int ...]")
	}
	n, err := e.nodeByID(args[0])
	if err != nil {
		return err
	}
	state := object.State{}
	for _, kv := range args[2:] {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return fmt.Errorf("invalid attribute %q", kv)
		}
		v, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return fmt.Errorf("invalid integer %q", parts[1])
		}
		state[parts[0]] = v
	}
	return n.Create(beanClass, object.ID(args[1]), state, e.cluster.AllReplicas(n.ID))
}

func (e *Engine) cmdSet(args []string, wantFail bool) error {
	if len(args) != 4 {
		return errors.New("set expects NODE ID ATTR VALUE")
	}
	n, err := e.nodeByID(args[0])
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(args[3], 10, 64)
	if err != nil {
		return fmt.Errorf("invalid integer %q", args[3])
	}
	_, err = n.Invoke(object.ID(args[1]), "Set", args[2], v)
	if wantFail {
		if err == nil {
			return fmt.Errorf("%w: set %s succeeded but was expected to fail", ErrAssertion, args[1])
		}
		fmt.Fprintf(e.Out, "rejected as expected: %v\n", err)
		return nil
	}
	return err
}

func (e *Engine) cmdExpect(args []string) error {
	if len(args) != 4 {
		return errors.New("expect expects NODE ID ATTR VALUE")
	}
	n, err := e.nodeByID(args[0])
	if err != nil {
		return err
	}
	ent, err := n.Registry.Get(object.ID(args[1]))
	if err != nil {
		return err
	}
	want, err := strconv.ParseInt(args[3], 10, 64)
	if err != nil {
		return fmt.Errorf("invalid integer %q", args[3])
	}
	if got := ent.GetInt(args[2]); got != want {
		return fmt.Errorf("%w: %s.%s on %s = %d, want %d", ErrAssertion, args[1], args[2], args[0], got, want)
	}
	return nil
}

func (e *Engine) cmdThreats(args []string) error {
	if len(args) != 2 {
		return errors.New("threats expects NODE COUNT")
	}
	n, err := e.nodeByID(args[0])
	if err != nil {
		return err
	}
	want, err := strconv.Atoi(args[1])
	if err != nil {
		return fmt.Errorf("invalid count %q", args[1])
	}
	if got := n.Threats.Len(); got != want {
		return fmt.Errorf("%w: node %s holds %d threats, want %d", ErrAssertion, args[0], got, want)
	}
	return nil
}

func (e *Engine) cmdMode(args []string) error {
	if len(args) != 2 {
		return errors.New("mode expects NODE healthy|degraded")
	}
	n, err := e.nodeByID(args[0])
	if err != nil {
		return err
	}
	want, err := parseMode(args[1])
	if err != nil {
		return err
	}
	if got := n.Mode(); got != want {
		return fmt.Errorf("%w: node %s mode = %s, want %s", ErrAssertion, args[0], got, args[1])
	}
	return nil
}

func (e *Engine) cmdPartition(args []string) error {
	if err := e.needCluster(); err != nil {
		return err
	}
	var groups [][]transport.NodeID
	var current []transport.NodeID
	for _, a := range args {
		if a == "|" {
			groups = append(groups, current)
			current = nil
			continue
		}
		current = append(current, transport.NodeID(a))
	}
	groups = append(groups, current)
	if len(groups) < 2 {
		return errors.New("partition expects at least two groups separated by |")
	}
	e.cluster.Partition(groups...)
	return nil
}

func (e *Engine) cmdReconcile(args []string) error {
	if len(args) < 1 {
		return errors.New("reconcile expects NODE [PEER ...]")
	}
	n, err := e.nodeByID(args[0])
	if err != nil {
		return err
	}
	var peers []transport.NodeID
	if len(args) > 1 {
		for _, p := range args[1:] {
			peers = append(peers, transport.NodeID(p))
		}
	} else {
		for _, id := range e.cluster.IDs() {
			if id != n.ID {
				peers = append(peers, id)
			}
		}
	}
	report, err := reconcile.Run(context.Background(), n, peers, reconcile.Handlers{})
	if err != nil {
		return err
	}
	fmt.Fprintf(e.Out, "reconciled: %d pushed, %d adopted, %d conflicts, %d threats removed, %d deferred\n",
		report.Replica.Pushed, report.Replica.Adopted, report.Replica.Conflicts,
		report.Constraint.Removed, report.Constraint.Deferred)
	return nil
}

// cmdGossip runs one synchronous anti-entropy round from a node — against a
// random fanout of its co-group peers, or against exactly the named peers —
// and prints each exchange.
func (e *Engine) cmdGossip(args []string) error {
	if len(args) < 1 {
		return errors.New("gossip expects NODE [PEER ...]")
	}
	n, err := e.nodeByID(args[0])
	if err != nil {
		return err
	}
	if n.Gossip == nil {
		return fmt.Errorf("node %s has no gossip manager (use 'cluster N gossip=manual')", n.ID)
	}
	var exchanges []gossip.Exchange
	if len(args) > 1 {
		for _, p := range args[1:] {
			ex, err := n.Gossip.GossipWith(context.Background(), transport.NodeID(p))
			if err != nil {
				return fmt.Errorf("gossip with %s: %w", p, err)
			}
			exchanges = append(exchanges, ex)
		}
	} else {
		exchanges, err = n.Gossip.RunRound(context.Background())
		if err != nil {
			return err
		}
	}
	if len(exchanges) == 0 {
		fmt.Fprintf(e.Out, "gossip %s: no peers\n", n.ID)
		return nil
	}
	for _, ex := range exchanges {
		if ex.InSync {
			fmt.Fprintf(e.Out, "gossip %s <-> %s: in sync\n", n.ID, ex.Peer)
		} else {
			fmt.Fprintf(e.Out, "gossip %s <-> %s: pulled %d, pushed %d\n", n.ID, ex.Peer, ex.Pulled, ex.Pushed)
		}
	}
	return nil
}

func (e *Engine) cmdSleep(args []string) error {
	if len(args) != 1 {
		return errors.New("sleep expects DURATION (e.g. 50ms)")
	}
	d, err := time.ParseDuration(args[0])
	if err != nil || d < 0 {
		return fmt.Errorf("invalid duration %q", args[0])
	}
	time.Sleep(d)
	return nil
}

func parseMode(s string) (core.Mode, error) {
	switch s {
	case "healthy":
		return core.Healthy, nil
	case "degraded":
		return core.Degraded, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", s)
	}
}

// cmdAwait polls a node until it reaches the wanted mode, absorbing the
// nondeterministic detection/rejoin lag of detector-driven membership.
func (e *Engine) cmdAwait(args []string) error {
	if len(args) != 2 && len(args) != 3 {
		return errors.New("await expects NODE healthy|degraded [TIMEOUT]")
	}
	n, err := e.nodeByID(args[0])
	if err != nil {
		return err
	}
	want, err := parseMode(args[1])
	if err != nil {
		return err
	}
	timeout := 2 * time.Second
	if len(args) == 3 {
		timeout, err = time.ParseDuration(args[2])
		if err != nil || timeout <= 0 {
			return fmt.Errorf("invalid timeout %q", args[2])
		}
	}
	deadline := time.Now().Add(timeout)
	for {
		if n.Mode() == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: node %s mode = %s after %s, want %s",
				ErrAssertion, args[0], n.Mode(), timeout, args[1])
		}
		time.Sleep(time.Millisecond)
	}
}

// cmdMetric prints every counter and histogram whose name contains the given
// substring, e.g. 'metric detect.' after a partition/heal cycle.
func (e *Engine) cmdMetric(args []string) error {
	if len(args) != 1 {
		return errors.New("metric expects PREFIX")
	}
	if err := e.needCluster(); err != nil {
		return err
	}
	snap := e.cluster.Obs.Snapshot()
	var lines []string
	for name, v := range snap.Counters {
		if strings.Contains(name, args[0]) {
			lines = append(lines, fmt.Sprintf("%s = %d", name, v))
		}
	}
	for name, h := range snap.Histograms {
		if strings.Contains(name, args[0]) && h.Count > 0 {
			lines = append(lines, fmt.Sprintf("%s: count=%d mean=%s", name, h.Count, h.Sum/time.Duration(h.Count)))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(e.Out, l)
	}
	return nil
}
