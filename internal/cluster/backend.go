package cluster

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/serve"
)

// Backend is one hardened serving node as the router sees it. The two
// implementations are LocalBackend (an in-process serve.Server — what
// tests, the chaos harness, and the cluster-kv benchmark use)
// and RemoteBackend (a TCP client to a haftserve process — what
// cmd/haftrouter uses).
type Backend interface {
	// ID is the stable node identity the ring hashes.
	ID() string
	// Do executes one request and returns the reply word.
	Do(req serve.Request) (uint64, error)
	// Ping checks liveness (the health checker's probe).
	Ping() error
	// Close releases the backend's resources.
	Close()
}

// Killable backends additionally support whole-node chaos: Kill tears
// the node down mid-traffic (requests fail), Restart brings up a
// *fresh* node with empty state — the router must replay the write
// log into it before readmission.
type Killable interface {
	Kill()
	Restart() error
}

// ErrNodeDown is returned by a killed or closed backend.
var ErrNodeDown = errors.New("cluster: node down")

// LocalBackend wraps an in-process hardened serve.Server.
type LocalBackend struct {
	id  string
	cfg serve.Config

	mu  sync.RWMutex
	srv *serve.Server // nil while killed
}

// NewLocalBackend starts one in-process hardened node. The serve
// config is kept so chaos restarts rebuild an identical (fresh-state)
// node.
func NewLocalBackend(id string, cfg serve.Config) (*LocalBackend, error) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %s: %w", id, err)
	}
	return &LocalBackend{id: id, cfg: cfg, srv: srv}, nil
}

// ID implements Backend.
func (b *LocalBackend) ID() string { return b.id }

// Server returns the live serve.Server (nil while killed) — tests and
// the experiment harness use it to reach node-level metrics.
func (b *LocalBackend) Server() *serve.Server {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.srv
}

// Do implements Backend.
func (b *LocalBackend) Do(req serve.Request) (uint64, error) {
	b.mu.RLock()
	srv := b.srv
	b.mu.RUnlock()
	if srv == nil {
		return 0, ErrNodeDown
	}
	return srv.Do(req)
}

// Ping implements Backend: a killed node fails, a live one answers.
func (b *LocalBackend) Ping() error {
	b.mu.RLock()
	srv := b.srv
	b.mu.RUnlock()
	if srv == nil {
		return ErrNodeDown
	}
	if h := srv.Health(); !h.OK {
		return ErrNodeDown
	}
	return nil
}

// Kill implements Killable: the node dies mid-traffic. In-flight
// requests fail with ErrClosed; the router's breaker takes it out of
// rotation.
func (b *LocalBackend) Kill() {
	b.mu.Lock()
	srv := b.srv
	b.srv = nil
	b.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// Restart implements Killable: a fresh node with empty state (new
// machines, new memory image). The router replays the shard write
// logs before sending it live traffic again.
func (b *LocalBackend) Restart() error {
	srv, err := serve.NewServer(b.cfg)
	if err != nil {
		return fmt.Errorf("cluster: restart node %s: %w", b.id, err)
	}
	b.mu.Lock()
	old := b.srv
	b.srv = srv
	b.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return nil
}

// Close implements Backend.
func (b *LocalBackend) Close() { b.Kill() }

// RemoteBackend is a TCP client to a haftserve node: a small pool of
// text-protocol connections, dialed lazily and discarded on a transport
// or framing error so a restarted node is picked up by fresh dials.
type RemoteBackend struct {
	id    string
	addr  string
	conns chan *serve.Conn
	slots chan struct{} // bounds total live conns

	mu     sync.Mutex
	closed bool
}

// NewRemoteBackend builds a client for the node at addr with up to
// maxConns pooled connections (default 4). No connection is dialed
// until the first request.
func NewRemoteBackend(id, addr string, maxConns int) *RemoteBackend {
	if maxConns <= 0 {
		maxConns = 4
	}
	b := &RemoteBackend{
		id:    id,
		addr:  addr,
		conns: make(chan *serve.Conn, maxConns),
		slots: make(chan struct{}, maxConns),
	}
	for i := 0; i < maxConns; i++ {
		b.slots <- struct{}{}
	}
	return b
}

// ID implements Backend.
func (b *RemoteBackend) ID() string { return b.id }

// Addr returns the node's TCP address.
func (b *RemoteBackend) Addr() string { return b.addr }

// get checks a pooled connection out, dialing if the pool is dry and a
// slot is free.
func (b *RemoteBackend) get() (*serve.Conn, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrNodeDown
	}
	b.mu.Unlock()
	select {
	case c := <-b.conns:
		return c, nil
	default:
	}
	select {
	case c := <-b.conns:
		return c, nil
	case <-b.slots:
		c, err := serve.Dial(b.addr)
		if err != nil {
			b.slots <- struct{}{}
			return nil, err
		}
		return c, nil
	}
}

// put returns a connection to the pool after a command that ended with
// err. A node's own "ERR ..." answer (draining, retries exhausted,
// deadline) leaves the line protocol in sync, so the connection is kept;
// after any other error it is closed and its slot freed for a fresh dial.
func (b *RemoteBackend) put(c *serve.Conn, err error) {
	var refused *serve.ServerError
	if err != nil && !errors.As(err, &refused) {
		c.Close()
		b.slots <- struct{}{}
		return
	}
	b.mu.Lock()
	closed := b.closed
	b.mu.Unlock()
	if closed {
		c.Close()
		return
	}
	select {
	case b.conns <- c:
	default:
		c.Close()
		b.slots <- struct{}{}
	}
}

// Do implements Backend over the text protocol.
func (b *RemoteBackend) Do(req serve.Request) (uint64, error) {
	c, err := b.get()
	if err != nil {
		return 0, err
	}
	var v uint64
	if req.Write {
		v, err = c.PutTraced(req.Key, req.Value, req.TraceID)
	} else {
		v, err = c.GetTraced(req.Key, req.TraceID)
	}
	b.put(c, err)
	return v, err
}

// Ping implements Backend.
func (b *RemoteBackend) Ping() error {
	c, err := b.get()
	if err != nil {
		return err
	}
	err = c.Ping()
	b.put(c, err)
	return err
}

// Close implements Backend.
func (b *RemoteBackend) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	for {
		select {
		case c := <-b.conns:
			c.Close()
		default:
			return
		}
	}
}
