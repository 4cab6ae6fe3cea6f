package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pleroma/internal/space"
	"pleroma/internal/wire"
)

// burstBackend is a fakeBackend whose Run fires n deliveries into every sink.
type burstBackend struct {
	*fakeBackend
	n int
}

func (b *burstBackend) Run() (time.Duration, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.runs++
	for id, sink := range b.sinks {
		for i := 0; i < b.n; i++ {
			sink(wire.Delivery{SubscriptionID: id, Event: space.Event{Values: []uint32{uint32(i), 8}}, At: 42})
		}
	}
	return time.Duration(b.runs) * time.Millisecond, nil
}

// TestServerSyncBarrierAcrossSessions: a Sync on connection X returns only
// after every delivery to X produced before it, however many other sessions
// send requests meanwhile. X runs rounds of Run then Sync and counts its
// deliveries at every Sync while Y loops Sync on its own connection: Y's
// requests must never leave X's batch unsent behind X's response.
func TestServerSyncBarrierAcrossSessions(t *testing.T) {
	const perRun, rounds = 2000, 200
	_, addr := startServer(t, &burstBackend{fakeBackend: newFakeBackend(), n: perRun})
	x, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	y, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	var got atomic.Int64
	if err := x.Subscribe("x", 11, nil, func(wire.Delivery) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := y.Sync(); err != nil {
				t.Errorf("Y sync: %v", err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for round := 1; round <= rounds; round++ {
		if _, err := x.Run(); err != nil {
			t.Fatal(err)
		}
		if err := x.Sync(); err != nil {
			t.Fatal(err)
		}
		if n, want := got.Load(), int64(round*perRun); n != want {
			t.Fatalf("round %d: %d deliveries at X's Sync, want %d", round, n, want)
		}
	}
}
