package obs

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func collect(ch <-chan int, into *[]int, done chan<- struct{}) {
	for v := range ch {
		*into = append(*into, v)
	}
	close(done)
}

func TestHubBroadcastOrder(t *testing.T) {
	var drops atomic.Int64
	h := NewHub[int](16, func() { drops.Add(1) })
	var a, b []int
	chA, cancelA := h.Subscribe()
	chB, cancelB := h.Subscribe()
	defer cancelA()
	defer cancelB()
	doneA, doneB := make(chan struct{}), make(chan struct{})
	go collect(chA, &a, doneA)
	go collect(chB, &b, doneB)
	for i := 0; i < 10; i++ {
		if !h.Publish(i) {
			t.Fatalf("Publish(%d) = false on an open hub", i)
		}
	}
	h.Close()
	<-doneA
	<-doneB
	for name, got := range map[string][]int{"a": a, "b": b} {
		if len(got) != 10 {
			t.Fatalf("subscriber %s received %d values, want 10: %v", name, len(got), got)
		}
		for i, v := range got {
			if v != i {
				t.Errorf("subscriber %s out of order at %d: got %d", name, i, v)
			}
		}
	}
	if drops.Load() != 0 {
		t.Errorf("onDrop fired %d times, want 0", drops.Load())
	}
}

// TestHubSlowSubscriberDrops pins the backpressure contract: a
// subscriber that never reads loses events beyond its buffer — with
// the drop callback fired per loss — while a reading subscriber
// receives every event and Publish never blocks on either.
func TestHubSlowSubscriberDrops(t *testing.T) {
	var cbDrops atomic.Int64
	h := NewHub[int](2, func() { cbDrops.Add(1) })
	defer h.Close()
	stuck, cancelStuck := h.Subscribe() // hub default: buffer 2
	defer cancelStuck()
	live, cancelLive := h.SubscribeBuf(64)
	defer cancelLive()

	const n = 20
	for i := 0; i < n; i++ {
		h.Publish(i)
	}
	// Receive on the live subscriber inline: delivery happens on the
	// dispatch goroutine after Publish returns, so draining here both
	// proves completeness and paces the drop accounting.
	var got []int
	timeout := time.After(5 * time.Second)
	for len(got) < n {
		select {
		case v := <-live:
			got = append(got, v)
		case <-timeout:
			t.Fatalf("live subscriber stalled at %d/%d events", len(got), n)
		}
	}
	want := int64(n - 2) // stuck buffer holds 2, the rest dropped
	for deadline := time.Now().Add(2 * time.Second); cbDrops.Load() != want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if cbDrops.Load() != want {
		t.Errorf("onDrop fired %d times, want %d", cbDrops.Load(), want)
	}
	if len(stuck) != 2 {
		t.Errorf("stuck subscriber buffered %d, want 2", len(stuck))
	}
}

func TestHubCancelAndClose(t *testing.T) {
	h := NewHub[string](4, nil)
	ch, cancel := h.Subscribe()
	cancel()
	cancel() // idempotent
	if _, ok := <-ch; ok {
		t.Fatal("cancelled subscriber channel still open")
	}
	ch2, cancel2 := h.Subscribe()
	h.Close()
	h.Close() // idempotent
	if _, ok := <-ch2; ok {
		t.Fatal("Close left a subscriber channel open")
	}
	cancel2() // safe after Close
	if h.Publish("late") {
		t.Fatal("Publish succeeded on a closed hub")
	}
	ch3, cancel3 := h.Subscribe()
	cancel3()
	if _, ok := <-ch3; ok {
		t.Fatal("Subscribe on a closed hub returned an open channel")
	}
}

func TestHubNilSafe(t *testing.T) {
	var h *Hub[int]
	if h.Publish(1) {
		t.Error("nil hub accepted a publish")
	}
	h.Close()
}

// TestHubConcurrent exercises racing publishers, subscribers and
// cancels; run under -race it proves the dispatch goroutine's
// ownership of the subscriber set.
func TestHubConcurrent(t *testing.T) {
	h := NewHub[int](8, nil)
	var wg sync.WaitGroup
	var published atomic.Int64
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if h.Publish(p*100 + i) {
					published.Add(1)
				}
			}
		}(p)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch, cancel := h.Subscribe()
			defer cancel()
			deadline := time.After(2 * time.Second)
			for n := 0; n < 10; n++ {
				select {
				case _, ok := <-ch:
					if !ok {
						return
					}
				case <-deadline:
					return
				}
			}
		}()
	}
	wg.Wait()
	h.Close()
	if published.Load() != 200 {
		t.Errorf("Publish accepted %d values, want 200", published.Load())
	}
}
