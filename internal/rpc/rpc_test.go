package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newPair(t *testing.T) (*Server, *Client) {
	t.Helper()
	s := NewServer()
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c := NewClient(addr, nil)
	t.Cleanup(c.Close)
	return s, c
}

func TestCallRoundTrip(t *testing.T) {
	s, c := newPair(t)
	s.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	out, err := c.Call(context.Background(), "echo", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte("hello")) {
		t.Fatalf("echo = %q", out)
	}
}

func TestRemoteError(t *testing.T) {
	s, c := newPair(t)
	s.Handle("fail", func(p []byte) ([]byte, error) { return nil, errors.New("kaboom") })
	_, err := c.Call(context.Background(), "fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "kaboom" {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, c := newPair(t)
	_, err := c.Call(context.Background(), "nope", nil)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "no such method") {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	s, c := newPair(t)
	s.Handle("double", func(p []byte) ([]byte, error) {
		return append(p, p...), nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := []byte(fmt.Sprintf("m%d", i))
			out, err := c.Call(context.Background(), "double", in)
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if !bytes.Equal(out, append(in, in...)) {
				t.Errorf("call %d: got %q", i, out)
			}
		}(i)
	}
	wg.Wait()
}

func TestSlowHandlerDoesNotBlockOthers(t *testing.T) {
	s, c := newPair(t)
	release := make(chan struct{})
	s.Handle("slow", func(p []byte) ([]byte, error) { <-release; return []byte("slow"), nil })
	s.Handle("fast", func(p []byte) ([]byte, error) { return []byte("fast"), nil })

	slowDone := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), "slow", nil)
		slowDone <- err
	}()
	// The fast call must complete while slow is parked.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := c.Call(ctx, "fast", nil)
	if err != nil || string(out) != "fast" {
		t.Fatalf("fast call blocked: %q %v", out, err)
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

func TestOneWay(t *testing.T) {
	s, c := newPair(t)
	got := make(chan []byte, 1)
	s.Handle("fire", func(p []byte) ([]byte, error) {
		got <- append([]byte(nil), p...)
		return nil, nil
	})
	if err := c.Send("fire", []byte("async")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if string(p) != "async" {
			t.Fatalf("one-way payload %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("one-way never arrived")
	}
}

func TestOneWaySavesAMessage(t *testing.T) {
	// The paper's Section 5 point: one-way Send costs one wire message; an
	// RPC costs two.
	s, c := newPair(t)
	done := make(chan struct{}, 8)
	s.Handle("op", func(p []byte) ([]byte, error) { done <- struct{}{}; return nil, nil })
	if _, err := c.Call(context.Background(), "op", nil); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := c.Send("op", nil); err != nil {
		t.Fatal(err)
	}
	<-done
	cs := c.Stats()
	if cs.MessagesSent != 2 || cs.MessagesReceived != 1 {
		t.Fatalf("client stats = %+v, want 2 sent / 1 received", cs)
	}
	// Server: received 2, sent 1 (response to the call only).
	deadline := time.Now().Add(2 * time.Second)
	for {
		ss := s.Stats()
		if ss.MessagesReceived == 2 && ss.MessagesSent == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server stats = %+v", ss)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestContextCancel(t *testing.T) {
	s, c := newPair(t)
	s.Handle("hang", func(p []byte) ([]byte, error) {
		time.Sleep(5 * time.Second)
		return nil, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.Call(ctx, "hang", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

// lateDoneCtx is a deadline context whose Done never fires, so a response
// frame always wins Call's select — the race a real context loses only
// sometimes. With timerFired, Err reports DeadlineExceeded once the
// deadline has passed; without, Err stays nil, as it does for a real
// context between its deadline and its timer running.
type lateDoneCtx struct {
	context.Context
	dl         time.Time
	timerFired bool
}

func (c lateDoneCtx) Deadline() (time.Time, bool) { return c.dl, true }
func (c lateDoneCtx) Done() <-chan struct{}       { return nil }
func (c lateDoneCtx) Err() error {
	if !c.timerFired || time.Now().Before(c.dl) {
		return nil
	}
	return context.DeadlineExceeded
}

// TestBudgetExpiryErrorFrameIsDeadlineExceeded: the server's own budget
// expiry comes back as an error frame carrying the text of
// context.DeadlineExceeded. When that frame beats the caller's ctx.Done(),
// the caller must still see context.DeadlineExceeded, not a terminal
// *RemoteError that retry and breaker logic classify as a handler failure.
func TestBudgetExpiryErrorFrameIsDeadlineExceeded(t *testing.T) {
	s, c := newPair(t)
	s.HandleCtx("wait", func(ctx context.Context, p []byte) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	s.Handle("fail", func(p []byte) ([]byte, error) { return nil, errors.New("kaboom") })
	for _, fired := range []bool{true, false} {
		ctx := lateDoneCtx{Context: context.Background(), dl: time.Now().Add(30 * time.Millisecond), timerFired: fired}
		_, err := c.Call(ctx, "wait", nil)
		var re *RemoteError
		if !errors.Is(err, context.DeadlineExceeded) || errors.As(err, &re) {
			t.Fatalf("timerFired=%v: err = %v (%T), want context.DeadlineExceeded", fired, err, err)
		}
		// A handler error well inside the budget is still the handler's.
		ctx.dl = time.Now().Add(time.Minute)
		if _, err := c.Call(ctx, "fail", nil); !errors.As(err, &re) || re.Msg != "kaboom" {
			t.Fatalf("timerFired=%v: err = %v, want RemoteError kaboom", fired, err)
		}
	}
}

func TestServerCloseFailsPendingCalls(t *testing.T) {
	s, c := newPair(t)
	s.Handle("hang", func(p []byte) ([]byte, error) {
		time.Sleep(10 * time.Second)
		return nil, nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), "hang", nil)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("err = %v, want ErrConnClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call not failed by server close")
	}
}

func TestClientReconnectsAfterConnFailure(t *testing.T) {
	s := NewServer()
	s.Handle("ping", func(p []byte) ([]byte, error) { return []byte("pong"), nil })
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	var conns []net.Conn
	var connMu sync.Mutex
	dialer := func(a string) (net.Conn, error) {
		conn, err := net.Dial("tcp", a)
		if err == nil {
			connMu.Lock()
			conns = append(conns, conn)
			connMu.Unlock()
		}
		return conn, err
	}
	c := NewClient(addr, dialer)
	t.Cleanup(c.Close)
	if _, err := c.Call(context.Background(), "ping", nil); err != nil {
		t.Fatal(err)
	}
	// Cut the connection out from under the client.
	connMu.Lock()
	conns[0].Close()
	connMu.Unlock()
	// The next call (possibly after one failure) transparently redials.
	deadline := time.Now().Add(2 * time.Second)
	for {
		out, err := c.Call(context.Background(), "ping", nil)
		if err == nil && string(out) == "pong" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never recovered: %v", err)
		}
	}
}

func TestClosedClientRejectsCalls(t *testing.T) {
	_, c := newPair(t)
	c.Close()
	if _, err := c.Call(context.Background(), "x", nil); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("err = %v", err)
	}
	if err := c.Send("x", nil); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("send err = %v", err)
	}
}

func TestLargePayload(t *testing.T) {
	s, c := newPair(t)
	s.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	big := bytes.Repeat([]byte("x"), 1<<20)
	out, err := c.Call(context.Background(), "echo", big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, big) {
		t.Fatal("large payload corrupted")
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	_, c := newPair(t)
	too := make([]byte, maxFrame+1)
	if _, err := c.Call(context.Background(), "x", too); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestManySequentialCalls(t *testing.T) {
	s, c := newPair(t)
	var count atomic.Int64
	s.Handle("inc", func(p []byte) ([]byte, error) {
		count.Add(1)
		return nil, nil
	})
	for i := 0; i < 500; i++ {
		if _, err := c.Call(context.Background(), "inc", nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if count.Load() != 500 {
		t.Fatalf("count = %d", count.Load())
	}
}
