package cluster

import (
	"net"
	"sync"

	"repro/internal/obs"
	"repro/internal/serve"
)

// The router speaks the text protocol of a single haftserve node by
// running the same server: serve.ServeConn with the Cluster as its
// Handler (the protocol is described in internal/serve/proto.go). Any
// client of one hardened server — cmd/haftload included — can point at
// the router unchanged and transparently get sharding, replication and
// reply voting. The one divergence is "stats", which answers with the
// router's registry (votes, masked corruptions, failovers, replays).
// A "tid=<hex>" token on get/put is threaded through the router's
// dispatch/vote spans and forwarded to every replica, so the whole
// fan-out shares one trace id; untagged requests get a router-minted
// id.

// ServeListener accepts connections on l and serves the router text
// protocol until the cluster is closed (which also closes the
// listener) or the listener fails.
func (c *Cluster) ServeListener(l net.Listener) error {
	go func() {
		<-c.closed
		l.Close()
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-c.closed:
				return ErrClusterClosed
			default:
				return err
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			serve.ServeConn(conn, c)
		}()
	}
}

// Scan implements serve.Handler: n consecutive keys from key, each
// read through the voting path; the first failure fails the scan.
func (c *Cluster) Scan(key uint64, n int) ([]uint64, error) {
	out := make([]uint64, n)
	for i := range out {
		v, err := c.Get(key + uint64(i))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Stats implements serve.Handler: the router registry's view. Node
// counters (VM runs, aborts, instance quarantines) are in each node's
// own stats.
func (c *Cluster) Stats() obs.View { return c.metrics.reg.View() }
