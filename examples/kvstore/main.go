// kvstore: the §6.1 Memcached case study as a live service. Starts
// the hardened request-serving layer (a warm pool of HAFT-hardened VM
// instances with fault-aware retries) on a loopback TCP endpoint,
// drives it with YCSB-shaped clients while a single-event-upset
// campaign is injecting faults, verifies every reply against the
// reference function, and prints the server's metrics.
//
//	go run ./examples/kvstore
//
// The batch-oriented Figure 11 throughput table (lock elision
// amortizing the hardening cost) lives in `haftbench fig11`; the
// serving benchmark is `bash bench/run.sh -workload serve-kv`.
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"sync"

	haft "repro"
)

const (
	clients         = 8
	requestsPerConn = 500
)

func main() {
	cfg := haft.DefaultServeConfig()
	cfg.Pool = 4
	cfg.SEURate = 0.02 // ~1 SEU per 50 requests: retries stay visible
	srv, err := haft.NewServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.ServeListener(l)
	fmt.Printf("hardened KV server on %s: pool=%d, SEU rate %g/request\n\n",
		l.Addr(), cfg.Pool, cfg.SEURate)

	var wg sync.WaitGroup
	var corrupted, failed sync.Map
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := haft.DialServer(l.Addr().String())
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close()
			for n := 0; n < requestsPerConn; n++ {
				req := haft.ServeRequest{
					Write: n%2 == 0,
					Key:   uint64((i*31 + n) % srv.Records()),
				}
				var v uint64
				var err error
				if req.Write {
					req.Value = req.Key * 2654435761
					v, err = c.Put(req.Key, req.Value)
				} else {
					v, err = c.Get(req.Key)
				}
				if err != nil {
					failed.Store(fmt.Sprintf("%d/%d", i, n), err)
					continue
				}
				if v != haft.ServeReference(req, srv.ValueWork()) {
					corrupted.Store(fmt.Sprintf("%d/%d", i, n), v)
				}
			}
		}(i)
	}
	wg.Wait()

	nbad, nfail := 0, 0
	corrupted.Range(func(_, _ any) bool { nbad++; return true })
	failed.Range(func(_, _ any) bool { nfail++; return true })
	fmt.Printf("clients saw %d corrupted replies, %d failed requests\n\n", nbad, nfail)
	srv.Stats().WriteText(os.Stdout)
	fmt.Println("\nEvery reply was verified against the reference function while")
	fmt.Println("SEUs were injected: detected faults rolled back inside recovery")
	fmt.Println("transactions or were retried on another instance (§4, §6.1).")
}
