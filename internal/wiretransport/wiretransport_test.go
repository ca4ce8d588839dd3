package wiretransport

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"dedisys/internal/obs"
	"dedisys/internal/transport"
)

// counter reads a counter of o's registry; a name nothing registered fails
// the test instead of reading 0.
func counter(t *testing.T, o *obs.Observer, name string) int64 {
	t.Helper()
	v, ok := o.Snapshot().Counters[name]
	if !ok {
		t.Fatalf("no counter %q registered", name)
	}
	return v
}

// pair builds two started endpoints over unix sockets in a test temp dir.
func pair(t *testing.T) (*Wire, *Wire) {
	t.Helper()
	dir := t.TempDir()
	peers := map[transport.NodeID]string{
		"a": "unix:" + filepath.Join(dir, "a.sock"),
		"b": "unix:" + filepath.Join(dir, "b.sock"),
	}
	wa, err := New("a", peers)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := New("b", peers)
	if err != nil {
		t.Fatal(err)
	}
	if err := wa.Start(); err != nil {
		t.Fatal(err)
	}
	if err := wb.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wa.Close(); wb.Close() })
	return wa, wb
}

func TestRequestResponse(t *testing.T) {
	wa, wb := pair(t)
	if err := wb.Handle("b", "echo", func(from transport.NodeID, payload any) (any, error) {
		return fmt.Sprintf("%s said %v", from, payload), nil
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := wa.Send(context.Background(), "a", "b", "echo", "hi")
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	if resp != "a said hi" {
		t.Fatalf("resp = %v", resp)
	}
	if got := counter(t, wa.Observer(), "transport.messages"); got != 1 {
		t.Fatalf("messages = %d, want 1", got)
	}
}

func TestHandlerErrorCrossesWire(t *testing.T) {
	wa, wb := pair(t)
	wb.Handle("b", "fail", func(transport.NodeID, any) (any, error) {
		return nil, errors.New("boom")
	})
	_, err := wa.Send(context.Background(), "a", "b", "fail", nil)
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	if errors.Is(err, transport.ErrUnreachable) {
		t.Fatal("application error must not look unreachable")
	}
}

func TestNoHandlerIsPermanent(t *testing.T) {
	wa, _ := pair(t)
	_, err := wa.Send(context.Background(), "a", "b", "nosuch", nil)
	if !errors.Is(err, transport.ErrNoHandler) {
		t.Fatalf("err = %v, want ErrNoHandler", err)
	}
	if errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v: a missing handler must not look unreachable", err)
	}
}

func TestContextDeadlineAbandonsRequest(t *testing.T) {
	wa, wb := pair(t)
	release := make(chan struct{})
	wb.Handle("b", "slow", func(transport.NodeID, any) (any, error) {
		<-release
		return "late", nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := wa.Send(ctx, "a", "b", "slow", nil)
	close(release)
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded in chain", err)
	}
}

func TestDeadPeerFailsFastAndReconnects(t *testing.T) {
	dir := t.TempDir()
	peers := map[transport.NodeID]string{
		"a": "unix:" + filepath.Join(dir, "a.sock"),
		"b": "unix:" + filepath.Join(dir, "b.sock"),
	}
	wa, _ := New("a", peers)
	if err := wa.Start(); err != nil {
		t.Fatal(err)
	}
	defer wa.Close()

	// Peer never started: immediate connection-refused as unreachable.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	_, err := wa.Send(ctx, "a", "b", "echo", "x")
	cancel()
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}

	// Peer comes up: the next send dials fresh and succeeds.
	wb, _ := New("b", peers)
	if err := wb.Start(); err != nil {
		t.Fatal(err)
	}
	wb.Handle("b", "echo", func(_ transport.NodeID, p any) (any, error) { return p, nil })
	if _, err := wa.Send(context.Background(), "a", "b", "echo", "x"); err != nil {
		t.Fatalf("send after peer start: %v", err)
	}

	// Peer dies: in-flight reconnect state must not wedge the sender.
	wb.Close()
	ctx, cancel = context.WithTimeout(context.Background(), time.Second)
	_, err = wa.Send(ctx, "a", "b", "echo", "x")
	cancel()
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err after peer close = %v, want ErrUnreachable", err)
	}

	// Peer restarts on the same address: reconnect without explicit rejoin.
	wb2, _ := New("b", peers)
	if err := wb2.Start(); err != nil {
		t.Fatal(err)
	}
	defer wb2.Close()
	wb2.Handle("b", "echo", func(_ transport.NodeID, p any) (any, error) { return p, nil })
	var lastErr error
	for i := 0; i < 50; i++ {
		if _, lastErr = wa.Send(context.Background(), "a", "b", "echo", "x"); lastErr == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if lastErr != nil {
		t.Fatalf("send after peer restart: %v", lastErr)
	}
}

// corrMsg is a struct payload of TestConcurrentCorrelation.
type corrMsg struct {
	N    int
	Tags []string
}

func init() { gob.Register(corrMsg{}) }

// corrPayload spreads the senders over several payload types, so that the
// link's shared gob stream first meets each of them under concurrency.
func corrPayload(i int) any {
	switch i % 5 {
	case 0:
		return i
	case 1:
		return fmt.Sprint(i)
	case 2:
		return corrMsg{N: i, Tags: []string{"t", fmt.Sprint(i)}}
	case 3:
		return []byte{byte(i)}
	default:
		return float64(i)
	}
}

func TestConcurrentCorrelation(t *testing.T) {
	wa, wb := pair(t)
	wb.Handle("b", "echo", func(_ transport.NodeID, p any) (any, error) {
		// Replies overtake one another: the delay varies with the payload.
		delay := 0
		for _, c := range fmt.Sprint(p) {
			delay += int(c)
		}
		time.Sleep(time.Duration(delay%7) * time.Millisecond)
		return p, nil
	})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		want := corrPayload(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := wa.Send(context.Background(), "a", "b", "echo", want)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(resp, want) {
				errs <- fmt.Errorf("sent %#v, got %#v", want, resp)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestStaticMembershipSurface(t *testing.T) {
	wa, _ := pair(t)
	nodes := wa.Nodes()
	if len(nodes) != 2 || nodes[0] != "a" || nodes[1] != "b" {
		t.Fatalf("nodes = %v", nodes)
	}
	if err := wa.Handle("b", "x", func(transport.NodeID, any) (any, error) { return nil, nil }); err == nil {
		t.Fatal("handler registration for a foreign node must fail")
	}
	if _, err := wa.Send(context.Background(), "b", "a", "x", nil); err == nil {
		t.Fatal("send from a foreign identity must fail")
	}
	if wa.Epoch() != 1 {
		t.Fatalf("epoch = %d", wa.Epoch())
	}
	// No oracle: the wire must not leak ground-truth topology.
	if _, ok := any(wa).(transport.Oracle); ok {
		t.Fatal("wire transport must not implement the simulation oracle")
	}
}

func TestLoopbackSend(t *testing.T) {
	wa, _ := pair(t)
	wa.Handle("a", "echo", func(_ transport.NodeID, p any) (any, error) { return p, nil })
	resp, err := wa.Send(context.Background(), "a", "a", "echo", "self")
	if err != nil || resp != "self" {
		t.Fatalf("loopback = %v, %v", resp, err)
	}
}

func TestTCPBackend(t *testing.T) {
	// Fixed ports would flake; use port 0 via a two-phase setup: start both
	// listeners first, then rewrite the peer maps with the real ports.
	wa0, err := New("a", map[transport.NodeID]string{"a": "tcp:127.0.0.1:0", "b": "tcp:127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	wb0, err := New("b", map[transport.NodeID]string{"a": "tcp:127.0.0.1:0", "b": "tcp:127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := wa0.Start(); err != nil {
		t.Fatal(err)
	}
	if err := wb0.Start(); err != nil {
		t.Fatal(err)
	}
	peers := map[transport.NodeID]string{
		"a": "tcp:" + wa0.Addr().String(),
		"b": "tcp:" + wb0.Addr().String(),
	}
	wa0.Close()
	wb0.Close()

	wa, _ := New("a", peers)
	wb, _ := New("b", peers)
	if err := wa.Start(); err != nil {
		t.Fatal(err)
	}
	if err := wb.Start(); err != nil {
		t.Fatal(err)
	}
	defer wa.Close()
	defer wb.Close()
	wb.Handle("b", "echo", func(_ transport.NodeID, p any) (any, error) { return p, nil })
	if err := wa.WaitPeers(contextWithTimeout(t, 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	resp, err := wa.Send(context.Background(), "a", "b", "echo", "tcp")
	if err != nil || resp != "tcp" {
		t.Fatalf("tcp send = %v, %v", resp, err)
	}
}

func contextWithTimeout(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}
