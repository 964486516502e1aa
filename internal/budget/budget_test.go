package budget

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestNilMeterAdmitsEverything(t *testing.T) {
	var m *Meter
	if !m.ChargePostings(1 << 30) {
		t.Fatal("nil meter refused postings")
	}
	if !m.ChargeResults(1 << 30) {
		t.Fatal("nil meter refused results")
	}
	if !m.Check() {
		t.Fatal("nil meter failed Check")
	}
	if m.Err() != nil {
		t.Fatal("nil meter reports an error")
	}
	if m.Postings() != 0 || m.Results() != 0 {
		t.Fatal("nil meter reports charges")
	}
}

func TestZeroLimitsUnlimited(t *testing.T) {
	m := NewMeter(nil, Limits{})
	for i := 0; i < 100; i++ {
		if !m.ChargePostings(1<<20) || !m.ChargeResults(1<<20) {
			t.Fatal("unlimited meter refused a charge")
		}
	}
	if m.Err() != nil {
		t.Fatalf("unlimited meter tripped: %v", m.Err())
	}
}

func TestPostingsLimitTripsAndLatches(t *testing.T) {
	m := NewMeter(nil, Limits{MaxPostings: 100})
	if !m.ChargePostings(100) {
		t.Fatal("charge at the limit refused")
	}
	if m.ChargePostings(1) {
		t.Fatal("charge past the limit admitted")
	}
	if !errors.Is(m.Err(), ErrPostingsBudget) {
		t.Fatalf("Err = %v, want ErrPostingsBudget", m.Err())
	}
	// Latch: every later charge of any kind is refused.
	if m.ChargeResults(1) || m.ChargePostings(0) || m.Check() {
		t.Fatal("tripped meter admitted a later charge")
	}
	if m.Postings() != 101 {
		t.Fatalf("Postings = %d, want 101", m.Postings())
	}
}

func TestResultLimitTrips(t *testing.T) {
	m := NewMeter(nil, Limits{MaxResults: 10})
	if !m.ChargeResults(10) {
		t.Fatal("charge at the limit refused")
	}
	if m.ChargeResults(1) {
		t.Fatal("charge past the limit admitted")
	}
	if !errors.Is(m.Err(), ErrResultBudget) {
		t.Fatalf("Err = %v, want ErrResultBudget", m.Err())
	}
}

func TestDeadlineSurfacesContextError(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	m := NewMeter(ctx, Limits{MaxPostings: 1 << 40})
	if m.ChargePostings(1) {
		t.Fatal("expired context admitted a charge")
	}
	if !errors.Is(m.Err(), context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want DeadlineExceeded", m.Err())
	}
}

func TestCancelSurfacesContextError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := NewMeter(ctx, Limits{})
	if m.Check() {
		t.Fatal("cancelled context passed Check")
	}
	if !errors.Is(m.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want Canceled", m.Err())
	}
}

// TestConcurrentCharges exercises the latch under -race: many goroutines
// charge concurrently; exactly one sentinel wins and the totals stay exact
// up to the charges admitted before the trip.
func TestConcurrentCharges(t *testing.T) {
	m := NewMeter(nil, Limits{MaxPostings: 1000})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if !m.ChargePostings(1) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if !errors.Is(m.Err(), ErrPostingsBudget) {
		t.Fatalf("Err = %v, want ErrPostingsBudget", m.Err())
	}
}
