package jobs

import (
	"context"
	"sync"
	"testing"
	"time"

	"privstats/internal/testutil"
)

func TestFairSemaphoreInterleavesTenants(t *testing.T) {
	f, err := NewFairSemaphore(1)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the only slot so every later Acquire queues.
	if err := f.Acquire(context.Background(), "hog", 1); err != nil {
		t.Fatal(err)
	}

	grants := make(chan string, 8)
	var wg sync.WaitGroup
	// The hog floods four waiters first; the mouse arrives last with two.
	// A FIFO semaphore would run all four hog jobs before the mouse; fair
	// queueing starts the mouse's backlog at the current virtual time, so it
	// interleaves ahead of the hog's later grants.
	for i := 0; i < 4; i++ {
		parkOne(t, f, "hog", 1, grants, &wg)
	}
	parkOne(t, f, "mouse", 1, grants, &wg)
	parkOne(t, f, "mouse", 1, grants, &wg)

	var order []string
	for i := 0; i < 6; i++ {
		f.Release()
		order = append(order, <-grants)
	}
	f.Release() // the last grant's slot
	wg.Wait()

	// Tags: hog 1,2,3,4; mouse 0,1 → mouse first, then strict alternation
	// until the mouse drains.
	want := []string{"mouse", "hog", "mouse", "hog", "hog", "hog"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
}

// parkOne enqueues a waiter and blocks until it is parked in the queue.
func parkOne(t *testing.T, f *FairSemaphore, tenant string, weight int, ch chan string, wg *sync.WaitGroup) {
	t.Helper()
	before := f.Queued()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := f.Acquire(context.Background(), tenant, weight); err != nil {
			t.Errorf("Acquire(%s): %v", tenant, err)
			return
		}
		ch <- tenant
	}()
	testutil.Eventually(t, 10*time.Second, "the waiter to park", func() bool { return f.Queued() > before })
}

func TestFairSemaphoreWeights(t *testing.T) {
	f, err := NewFairSemaphore(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Acquire(context.Background(), "seed", 1); err != nil {
		t.Fatal(err)
	}
	grants := make(chan string, 8)
	var wg sync.WaitGroup
	// heavy (weight 2) parks four waiters, light (weight 1) two: under
	// saturation heavy should receive grants at twice light's rate.
	for i := 0; i < 4; i++ {
		parkOne(t, f, "heavy", 2, grants, &wg)
	}
	parkOne(t, f, "light", 1, grants, &wg)
	parkOne(t, f, "light", 1, grants, &wg)

	var order []string
	for i := 0; i < 6; i++ {
		f.Release()
		order = append(order, <-grants)
	}
	f.Release()
	wg.Wait()

	// heavy tags: 0, 0.5, 1, 1.5; light tags: 0, 1. Arrival order breaks the
	// ties at 0 and 1 in heavy's favour — heavy gets 2 of every 3 grants.
	want := []string{"heavy", "light", "heavy", "heavy", "light", "heavy"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
}

func TestFairSemaphoreCancel(t *testing.T) {
	f, err := NewFairSemaphore(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Acquire(context.Background(), "a", 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- f.Acquire(ctx, "b", 1) }()
	testutil.Eventually(t, 10*time.Second, "the waiter to park", func() bool { return f.Queued() > 0 })
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("cancelled Acquire returned %v", err)
	}
	if f.Queued() != 0 {
		t.Fatalf("cancelled waiter still queued")
	}
	// The slot is still usable.
	f.Release()
	if err := f.Acquire(context.Background(), "c", 1); err != nil {
		t.Fatal(err)
	}
	f.Release()
}

func TestFairSemaphoreValidation(t *testing.T) {
	if _, err := NewFairSemaphore(0); err == nil {
		t.Fatal("zero slots accepted")
	}
	f, _ := NewFairSemaphore(1)
	if err := f.Acquire(context.Background(), "a", 0); err == nil {
		t.Fatal("zero weight accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Acquire did not panic")
		}
	}()
	f.Release()
}
