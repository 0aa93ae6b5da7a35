// Concurrency and writeback tests for the buffer pool: Fetch/Unpin from
// many goroutines under -race, and Flush writing back every dirty page.
package storage

import (
	"fmt"
	"sync"
	"testing"
)

// preparePages allocates n pages through the pager directly so tests can
// Fetch them by ID.
func preparePages(t *testing.T, pager Pager, n int) []PageID {
	t.Helper()
	ids := make([]PageID, n)
	for i := range ids {
		id, err := pager.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		var p Page
		p.InitPage()
		if err := pager.WritePage(id, &p); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// TestBufferPoolConcurrentFetch hammers one 32-frame pool from 8 goroutines
// over 64 pages; run under -race it checks the pool's locking. At most 8
// pins are outstanding at once, so the pool can never be exhausted.
func TestBufferPoolConcurrentFetch(t *testing.T) {
	for _, policy := range []ReplacementPolicy{PolicyLRU, PolicyClock} {
		t.Run(policy.String(), func(t *testing.T) {
			pager := NewMemPager()
			ids := preparePages(t, pager, 64)
			pool := NewBufferPool(pager, 32, policy)

			const workers, rounds = 8, 200
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						id := ids[(w*rounds+r*7)%len(ids)]
						if _, err := pool.Fetch(id); err != nil {
							t.Errorf("worker %d: fetch %d: %v", w, id, err)
							return
						}
						if err := pool.Unpin(id, r%3 == 0); err != nil {
							t.Errorf("worker %d: unpin %d: %v", w, id, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if err := pool.Close(); err != nil {
				t.Fatal(err)
			}
			st := pool.Stats()
			if st.Hits+st.Misses != workers*rounds {
				t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, workers*rounds)
			}
		})
	}
}

func TestBufferPoolFlushWritesEveryDirtyPage(t *testing.T) {
	pager := NewMemPager()
	ids := preparePages(t, pager, 12)
	pool := NewBufferPool(pager, 32, PolicyLRU)

	for i, id := range ids {
		p, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.InsertRecord([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := pool.Unpin(id, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Flushes != 12 {
		t.Fatalf("flushes = %d, want one per dirty page", st.Flushes)
	}
	// The pager (not just the pool) must hold the bytes now.
	for i, id := range ids {
		var p Page
		if err := pager.ReadPage(id, &p); err != nil {
			t.Fatal(err)
		}
		got, err := p.GetRecord(0)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("record-%d", i); string(got) != want {
			t.Fatalf("page %d = %q, want %q", id, got, want)
		}
	}
}
