// Command dedisys-node runs one DeDiSys middleware node as its own OS
// process over the real-wire transport (length-prefixed frames on TCP
// or unix-domain sockets). Every process of a deployment is started with
// the same -peers list; membership is static and derived from it, so all
// processes agree on the node universe and the placement ring.
//
// Usage:
//
//	dedisys-node -id a -peers a=unix:/tmp/a.sock,b=unix:/tmp/b.sock,c=unix:/tmp/c.sock
//
// After the node assembled and every peer answered a liveness probe it
// prints "ready" and serves a line-oriented REPL on stdin (one command per
// line, one "ok ..." or "err: ..." response line per command):
//
//	create <id> [key=value ...]   create a replicated Entity (home = this node)
//	set <id> <key> <value>        transactional write (commits to replicas)
//	get <id> <key>                read from the local replica
//	del <id>                      transactional delete
//	bind <name> <id>              bind a name        lookup <name>   resolve it
//	view                          this node's membership view
//	mode                          consistency mode (normal/degraded)
//	reconcile                     pull + merge replica state from all peers
//	stats                         the registry's counters and gauges, sorted: name=value ...
//	exit                          leave (EOF works too)
//
// Values parse as int, float or bool when they look like one, else string.
// See README.md ("Running a real cluster") for a 3-terminal example and
// DESIGN.md §13 for the transport design.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"dedisys/internal/detect"
	"dedisys/internal/gossip"
	"dedisys/internal/group"
	"dedisys/internal/node"
	"dedisys/internal/object"
	"dedisys/internal/reconcile"
	"dedisys/internal/replication"
	"dedisys/internal/transport"
	"dedisys/internal/wiretransport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dedisys-node:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dedisys-node", flag.ContinueOnError)
	var (
		id       = fs.String("id", "", "this node's ID (must appear in -peers)")
		peerSpec = fs.String("peers", "", "comma-separated id=address list; address is unix:/path or tcp:host:port")
		protocol = fs.String("protocol", "", "replica-control protocol: P4, primary-backup, primary-partition, adaptive-voting or quorum (default P4)")
		quorumK  = fs.Int("quorum-threshold", 0, "acks (incl. the coordinator) a quorum commit waits for; 0 = strict majority")
		groups   = fs.Int("groups", 0, "shard the object space across this many replica groups (0 = full replication)")
		rf       = fs.Int("replication-factor", 0, "nodes replicating each group (with -groups)")
		hb       = fs.Duration("detect", 0, "run a heartbeat failure detector with this period and drive membership from it (0 = static full views)")
		gInt     = fs.Duration("gossip-interval", 0, "run the anti-entropy gossip loop with this period (0 = off)")
		gFan     = fs.Int("gossip-fanout", 0, "peers contacted per gossip round (default 2; requires -gossip-interval)")
		wait     = fs.Duration("wait", 30*time.Second, "how long to wait for all peers before reporting ready (0 = don't wait)")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-command deadline for distributed operations")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gFan != 0 && *gInt == 0 {
		return fmt.Errorf("-gossip-fanout requires -gossip-interval")
	}
	peers, err := parsePeers(*peerSpec)
	if err != nil {
		return err
	}
	self := transport.NodeID(*id)
	if self == "" {
		return fmt.Errorf("-id is required")
	}

	proto, err := replication.ProtocolByName(*protocol, *quorumK)
	if err != nil {
		return err
	}

	wire, err := wiretransport.New(self, peers)
	if err != nil {
		return err
	}
	if err := wire.Start(); err != nil {
		return err
	}
	defer wire.Close()

	var gmsOpts []group.Option
	var detectCfg *detect.Config
	if *hb > 0 {
		gmsOpts = append(gmsOpts, group.WithDetector())
		detectCfg = &detect.Config{Interval: *hb}
	}
	gms := group.NewMembership(wire, gmsOpts...)

	var gossipCfg *gossip.Config
	if *gInt > 0 {
		gossipCfg = &gossip.Config{Interval: *gInt, Fanout: *gFan}
	}

	n, err := node.New(node.Options{
		ID:                self,
		Net:               wire,
		GMS:               gms,
		Protocol:          proto,
		Groups:            *groups,
		ReplicationFactor: *rf,
		Detect:            detectCfg,
		Gossip:            gossipCfg,
		Obs:               wire.Observer(),
	})
	if err != nil {
		return err
	}
	defer n.Stop()
	n.RegisterSchema(entitySchema())

	if *wait > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *wait)
		err := wire.WaitPeers(ctx)
		cancel()
		if err != nil {
			return err
		}
	}
	fmt.Println("ready")

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "exit" || fields[0] == "quit" {
			break
		}
		fmt.Println(execute(n, wire, fields, *timeout))
	}
	return sc.Err()
}

// execute runs one REPL command and renders its single response line.
func execute(n *node.Node, wire *wiretransport.Wire, fields []string, timeout time.Duration) string {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "create":
		if len(args) < 1 {
			return "err: usage: create <id> [key=value ...]"
		}
		attrs := object.State{}
		for _, kv := range args[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Sprintf("err: bad attribute %q (want key=value)", kv)
			}
			attrs[k] = parseValue(v)
		}
		info := replication.NewInfo(n.ID, wire.Nodes())
		if err := n.CreateCtx(ctx, "Entity", object.ID(args[0]), attrs, info); err != nil {
			return "err: " + err.Error()
		}
		return "ok created " + args[0]
	case "set":
		if len(args) != 3 {
			return "err: usage: set <id> <key> <value>"
		}
		if _, err := n.InvokeCtx(ctx, object.ID(args[0]), "SetAttr", args[1], parseValue(args[2])); err != nil {
			return "err: " + err.Error()
		}
		return fmt.Sprintf("ok set %s.%s", args[0], args[1])
	case "get":
		if len(args) != 2 {
			return "err: usage: get <id> <key>"
		}
		v, err := n.InvokeCtx(ctx, object.ID(args[0]), "GetAttr", args[1])
		if err != nil {
			return "err: " + err.Error()
		}
		return fmt.Sprintf("ok %v", v)
	case "del":
		if len(args) != 1 {
			return "err: usage: del <id>"
		}
		if err := n.DeleteCtx(ctx, object.ID(args[0])); err != nil {
			return "err: " + err.Error()
		}
		return "ok deleted " + args[0]
	case "bind":
		if len(args) != 2 {
			return "err: usage: bind <name> <id>"
		}
		if err := n.Naming.Bind(args[0], object.ID(args[1])); err != nil {
			return "err: " + err.Error()
		}
		return "ok bound " + args[0]
	case "lookup":
		if len(args) != 1 {
			return "err: usage: lookup <name>"
		}
		id, err := n.Naming.Lookup(args[0])
		if err != nil {
			return "err: " + err.Error()
		}
		return "ok " + string(id)
	case "view":
		v := n.GMS().ViewOf(n.ID)
		return fmt.Sprintf("ok epoch=%d members=%v", v.Epoch, v.Members)
	case "mode":
		return fmt.Sprintf("ok %v", n.Mode())
	case "reconcile":
		var peers []transport.NodeID
		for _, p := range wire.Nodes() {
			if p != n.ID {
				peers = append(peers, p)
			}
		}
		rep, err := reconcile.Run(ctx, n, peers, reconcile.Handlers{})
		if err != nil {
			return "err: " + err.Error()
		}
		return fmt.Sprintf("ok created=%d adopted=%d pushed=%d conflicts=%d reevaluated=%d",
			rep.Replica.Created, rep.Replica.Adopted, rep.Replica.Pushed, rep.Replica.Conflicts, rep.Constraint.Reevaluated)
	case "stats":
		snap := n.Obs.Snapshot()
		values := snap.Counters
		for name, v := range snap.Gauges {
			values[name] = v
		}
		names := make([]string, 0, len(values))
		for name := range values {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("ok")
		for _, name := range names {
			fmt.Fprintf(&b, " %s=%d", name, values[name])
		}
		return b.String()
	default:
		return fmt.Sprintf("err: unknown command %q", cmd)
	}
}

// entitySchema is the generic replicated bean served by the REPL: a bag of
// attributes with one transactional write and one read. SetAttr/GetAttr are
// registered with explicit kinds so routing (writes to the coordinator,
// reads to the local replica) never depends on name-prefix defaults.
func entitySchema() *object.Schema {
	s := object.NewSchema("Entity")
	s.DefineKind("SetAttr", object.Write, func(e *object.Entity, args []any) (any, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("SetAttr wants (key, value), got %d args", len(args))
		}
		key, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("SetAttr key must be a string, got %T", args[0])
		}
		e.Set(key, args[1])
		return "ok", nil
	})
	s.DefineKind("GetAttr", object.Read, func(e *object.Entity, args []any) (any, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("GetAttr wants (key), got %d args", len(args))
		}
		key, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("GetAttr key must be a string, got %T", args[0])
		}
		return e.Get(key)
	})
	return s
}

// parsePeers parses "a=unix:/tmp/a.sock,b=tcp:127.0.0.1:7001,...".
func parsePeers(spec string) (map[transport.NodeID]string, error) {
	if spec == "" {
		return nil, fmt.Errorf("-peers is required")
	}
	peers := make(map[transport.NodeID]string)
	for _, entry := range strings.Split(spec, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=address)", entry)
		}
		if _, dup := peers[transport.NodeID(id)]; dup {
			return nil, fmt.Errorf("duplicate node %q in -peers", id)
		}
		peers[transport.NodeID(id)] = addr
	}
	ids := make([]string, 0, len(peers))
	for id := range peers {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	return peers, nil
}

// parseValue interprets a REPL literal: int, float and bool when they look
// like one, string otherwise.
func parseValue(s string) any {
	if i, err := strconv.Atoi(s); err == nil {
		return i
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	if b, err := strconv.ParseBool(s); err == nil {
		return b
	}
	return s
}
