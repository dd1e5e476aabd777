// The matrix runner: executes the selected records across a pool of
// goroutines. Every record is a pure function of its seed, so the
// bundle does not depend on the worker count or the order of
// completion.

package scenario

import (
	"fmt"
	"runtime"
	"sync"
)

// Config parameterizes one matrix invocation.
type Config struct {
	// Filter selects scenarios by name and attribute.
	Filter Filter
	// Seed is the harness seed every run seed derives from.
	Seed int64
	// Workers is the parallel fan-out (default GOMAXPROCS).
	Workers int
	// Progress, if set, receives one line per completed record.
	Progress func(string)
}

// Run executes the selected records and returns their results bundle.
func (r *Registry) Run(cfg Config) (*Bundle, error) {
	runs := r.Select(cfg.Seed, cfg.Filter)
	if len(runs) == 0 {
		return nil, fmt.Errorf("scenario: selection %q matches no runs", cfg.Filter.String())
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	records := make([]Record, len(runs))
	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < min(workers, len(runs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				records[i] = execute(runs[i])
				if cfg.Progress != nil {
					mu.Lock()
					cfg.Progress(fmt.Sprintf("%-4s %s", records[i].Outcome, records[i].Key))
					mu.Unlock()
				}
			}
		}()
	}
	for i := range runs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return NewBundle(cfg.Seed, cfg.Filter.String(), records), nil
}
