package wiretransport

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dedisys/internal/transport"
)

// TestAbandonedReplyNeverReachesAnotherRequest pins the reuse rule of reply
// channels (run with -race): a channel goes back to the link only when no
// reply can still land in it. Round after round, concurrent senders on one
// link ask an echo handler that sleeps a delay of its payload's choosing.
// Every even sender waits as long as it takes; every odd one gets a deadline
// spread from just before its handler's delay to just after its reply, so
// some abandon long before the reply, some as it is being delivered, and some
// receive it. Later rounds take the channels the earlier ones freed. Every
// send that succeeds must return its own payload, and every patient one must
// succeed.
func TestAbandonedReplyNeverReachesAnotherRequest(t *testing.T) {
	wa, wb := pair(t)
	const senders, rounds = 32, 40
	delay := func(n int64) time.Duration {
		return time.Millisecond + time.Duration(n%senders%4)*250*time.Microsecond
	}
	wb.Handle("b", "echo", func(_ transport.NodeID, p any) (any, error) {
		time.Sleep(delay(p.(int64)))
		return p, nil
	})
	var mu sync.Mutex
	abandoned := 0
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < senders; i++ {
			wg.Add(1)
			go func(round, i int) {
				defer wg.Done()
				n := int64(round*senders + i)
				timeout := 10 * time.Second
				if i%2 == 1 {
					timeout = delay(n) + time.Duration((round*7+i)%16-4)*50*time.Microsecond
				}
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				defer cancel()
				resp, err := wa.Send(ctx, "a", "b", "echo", n)
				switch {
				case err == nil && resp != n:
					t.Errorf("round %d: sent %d, got %v: a reply reached another request", round, n, resp)
				case err != nil && (i%2 == 0 || !errors.Is(err, transport.ErrUnreachable)):
					t.Errorf("round %d: send %d (timeout %v): %v", round, n, timeout, err)
				case err != nil:
					mu.Lock()
					abandoned++
					mu.Unlock()
				}
			}(round, i)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
	if abandoned == 0 {
		t.Fatal("no send was abandoned: the test exercised no late reply")
	}
	t.Logf("%d of %d sends abandoned", abandoned, rounds*senders)
}

// TestUnsentRequestLeavesTheLink: a request whose deadline passes while it
// waits for the write mutex fails alone. The link, which saw none of it, stays
// up, and a payload type first framed by that request crosses it afterwards
// with its gob descriptors.
func TestUnsentRequestLeavesTheLink(t *testing.T) {
	wa, wb := pair(t)
	wb.Handle("b", "echo", func(_ transport.NodeID, p any) (any, error) { return p, nil })
	ctx := contextWithTimeout(t, 10*time.Second)
	if _, err := wa.Send(ctx, "a", "b", "echo", "warm"); err != nil {
		t.Fatal(err)
	}
	l, err := wa.link(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	l.writeMu.Lock()
	short, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := wa.Send(short, "a", "b", "echo", corrMsg{N: 1})
		done <- err
	}()
	// The request is registered, so it is at the write mutex or on its way.
	for registered := false; !registered; time.Sleep(time.Millisecond) {
		select {
		case err := <-done:
			l.writeMu.Unlock()
			t.Fatalf("the send returned before it reached the write: %v", err)
		default:
		}
		l.mu.Lock()
		registered = len(l.pending) == 1
		l.mu.Unlock()
	}
	<-short.Done()
	l.writeMu.Unlock()
	if err := <-done; !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("expired send = %v, want ErrUnreachable", err)
	}
	want := corrMsg{N: 2, Tags: []string{"after"}}
	if resp, err := wa.Send(ctx, "a", "b", "echo", want); err != nil || !reflect.DeepEqual(resp, want) {
		t.Fatalf("send after the unsent one = %#v, %v", resp, err)
	}
	if again, _ := wa.link(ctx, "b"); again != l {
		t.Fatal("the unsent request killed the link")
	}
}

// TestBlockedHandlerDoesNotStallTheLink: a request whose handler blocks holds
// its server, and a later request on the same link must not wait behind it.
// The first handler blocks until the second has been served.
func TestBlockedHandlerDoesNotStallTheLink(t *testing.T) {
	wa, wb := pair(t)
	entered, freed := make(chan struct{}), make(chan struct{})
	wb.Handle("b", "block", func(transport.NodeID, any) (any, error) {
		close(entered)
		<-freed
		return "unblocked", nil
	})
	wb.Handle("b", "free", func(transport.NodeID, any) (any, error) {
		close(freed)
		return "freed", nil
	})
	wb.Handle("b", "echo", func(_ transport.NodeID, p any) (any, error) { return p, nil })
	ctx := contextWithTimeout(t, 10*time.Second)
	// A server is parked on the link before the blocking request arrives.
	if _, err := wa.Send(ctx, "a", "b", "echo", "warm"); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := wa.Send(ctx, "a", "b", "block", nil)
		blocked <- err
	}()
	<-entered
	if resp, err := wa.Send(ctx, "a", "b", "free", nil); err != nil || resp != "freed" {
		t.Fatalf("second request = %v, %v: it waited behind the blocked handler", resp, err)
	}
	if err := <-blocked; err != nil {
		t.Fatalf("blocked request: %v", err)
	}
}

// TestLinkServersExitWithTheLink: every server a link started, parked or
// serving, leaves when the link dies. After a burst of concurrent requests
// and Close on both endpoints, the goroutine count returns to where it was.
func TestLinkServersExitWithTheLink(t *testing.T) {
	baseline := runtime.NumGoroutine()
	wa, wb := pair(t)
	wb.Handle("b", "echo", func(_ transport.NodeID, p any) (any, error) {
		time.Sleep(2 * time.Millisecond)
		return p, nil
	})
	ctx := contextWithTimeout(t, 10*time.Second)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := wa.Send(ctx, "a", "b", "echo", i); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if n := runtime.NumGoroutine(); n <= baseline {
		t.Fatalf("%d goroutines after the burst, %d before: no server is parked", n, baseline)
	}
	wa.Close()
	wb.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines 5 s after Close, %d before the link:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// countingConn counts the reads made on a connection.
type countingConn struct {
	net.Conn
	reads *atomic.Int32
}

func (c countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// TestQueuedFramesCostFewReads: requests already queued at a link's receiver
// are read in far fewer reads than two per frame, a prefix and a body, which
// is what an unbuffered reader makes. Each is served and answered in turn.
func TestQueuedFramesCostFewReads(t *testing.T) {
	const frames = 64
	path := filepath.Join(t.TempDir(), "b.sock")
	w, err := New("b", map[transport.NodeID]string{"b": "unix:" + path})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Handle("b", "echo", func(_ transport.NodeID, p any) (any, error) { return p, nil })
	ln, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	var fw frameWriter
	for i := 0; i < frames; i++ {
		b, err := fw.frame(wireFrame{ID: uint64(i + 1), Req: true, From: "a", Kind: "echo", Payload: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	var reads atomic.Int32
	l := newLink(w, countingConn{Conn: server, reads: &reads})
	go l.readLoop()
	defer l.fail()
	client.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr := newFrameReader(client)
	got := map[uint64]any{}
	for i := 0; i < frames; i++ {
		f, err := fr.next()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		got[f.ID] = f.Payload
	}
	for i := 0; i < frames; i++ {
		if p := got[uint64(i+1)]; p != int64(i) {
			t.Fatalf("request %d answered with %v", i+1, p)
		}
	}
	n := reads.Load()
	if n > frames/8 {
		t.Fatalf("%d queued frames took %d reads, want at most %d", frames, n, frames/8)
	}
	t.Logf("%d queued frames, %d reads", frames, n)
}
