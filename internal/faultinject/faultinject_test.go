package faultinject

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

func TestFireErrorAtExactHit(t *testing.T) {
	inj := NewInjector()
	want := errors.New("boom")
	inj.Arm(Fault{Site: "s", Action: Error, Hit: 3, Err: want})
	defer Activate(inj)()
	for hit := 1; hit <= 5; hit++ {
		err := Fire("s")
		if hit == 3 && !errors.Is(err, want) {
			t.Fatalf("hit %d: got %v, want boom", hit, err)
		}
		if hit != 3 && err != nil {
			t.Fatalf("hit %d: unexpected error %v", hit, err)
		}
	}
	if inj.Hits("s") != 5 || inj.Fired("s") != 1 {
		t.Fatalf("hits=%d fired=%d", inj.Hits("s"), inj.Fired("s"))
	}
}

func TestFireEveryHitWithTimesBound(t *testing.T) {
	inj := NewInjector()
	inj.Arm(Fault{Site: "s", Action: Error, Times: 2, Err: errors.New("x")})
	defer Activate(inj)()
	fails := 0
	for i := 0; i < 6; i++ {
		if Fire("s") != nil {
			fails++
		}
	}
	if fails != 2 {
		t.Fatalf("fired %d times, want 2", fails)
	}
}

func TestFirePanicAndCall(t *testing.T) {
	inj := NewInjector()
	inj.Arm(Fault{Site: "p", Action: Panic, Hit: 1})
	called := false
	inj.Arm(Fault{Site: "c", Action: Call, Hit: 1, Fn: func() { called = true }})
	defer Activate(inj)()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		_ = Fire("p")
	}()
	if err := Fire("c"); err != nil || !called {
		t.Fatalf("call action: err=%v called=%v", err, called)
	}
}

func TestTruncateBy(t *testing.T) {
	inj := NewInjector()
	inj.Arm(Fault{Site: "w", Action: Truncate, Hit: 1, Bytes: 17})
	defer Activate(inj)()
	if n := TruncateBy("w"); n != 17 {
		t.Fatalf("got %d, want 17", n)
	}
	if n := TruncateBy("w"); n != 0 {
		t.Fatalf("second hit truncated %d bytes", n)
	}
}

func TestProbIsSeedDeterministic(t *testing.T) {
	pattern := func(seed uint64) []bool {
		inj := NewInjector()
		inj.Arm(Fault{Site: "s", Action: Error, Prob: 0.5, Seed: seed, Err: errors.New("x")})
		deactivate := Activate(inj)
		defer deactivate()
		out := make([]bool, 40)
		for i := range out {
			out[i] = Fire("s") != nil
		}
		return out
	}
	a, b := pattern(7), pattern(7)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different pattern at %d", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("p=0.5 fired %d/%d times", fired, len(a))
	}
}

func TestDisabledIsNoop(t *testing.T) {
	if active.Load() != nil {
		t.Fatal("injector active at test start")
	}
	if Fire("s") != nil || TruncateBy("s") != 0 {
		t.Fatal("hooks fired with no injector")
	}
}

func TestSleepActionDelaysFire(t *testing.T) {
	inj := NewInjector()
	inj.Arm(Fault{Site: "z", Action: Sleep, Hit: 2, Delay: 30 * time.Millisecond})
	defer Activate(inj)()
	start := time.Now()
	if err := Fire("z"); err != nil {
		t.Fatalf("hit 1: %v", err)
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("unarmed hit slept %v", d)
	}
	start = time.Now()
	if err := Fire("z"); err != nil {
		t.Fatalf("hit 2: %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("armed hit returned after %v, want >= 30ms", d)
	}
}

func TestSlowWriterTrickles(t *testing.T) {
	var sink bytes.Buffer
	counts := &writeCounter{w: &sink}
	w := SlowWriter(counts, 2, 0)
	n, err := w.Write([]byte("abcdefg"))
	if err != nil || n != 7 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if sink.String() != "abcdefg" {
		t.Fatalf("wrote %q", sink.String())
	}
	if counts.calls != 4 { // 2+2+2+1
		t.Fatalf("underlying writes = %d, want 4", counts.calls)
	}
}

type writeCounter struct {
	w     io.Writer
	calls int
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.calls++
	return c.w.Write(p)
}
