package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

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
	// Ping checks liveness — the health checker's, the readmission's
	// and the audit's probe — waiting no later than at (zero: no bound).
	// The router always passes a deadline CallTimeout away, so a node
	// that never answers costs each probe that long, not forever.
	Ping(at time.Time) error
	// Close releases the backend's resources.
	Close()
}

// Splitter is a Backend whose call comes in two halves, so that the
// router can start a request on every replica before it waits for any
// reply, all from the calling goroutine. Send starts req and returns the
// call in flight; it never waits. A call that cannot start at once (no
// idle connection, a full queue) comes back with wait set: its Recv
// starts it, waiting for a connection or room, and the router runs that
// Recv on a goroutine of its own. Recv returns the call's reply, waiting
// no later than at (zero: no bound); a call at cuts short fails with
// errCallTimeout, and once at has passed Recv still takes a reply that
// has already arrived. Only a half that has to block makes a
// serve.Deadline for at, so a call that never waits allocates none.
// Every call Send returns without an error must be passed to Recv
// exactly once. Both shipped backends are Splitters; the
// router calls any other Backend through Do, on a goroutine of its own.
type Splitter interface {
	Backend
	Send(req serve.Request, at time.Time) (call any, wait bool, err error)
	Recv(call any, at time.Time) (uint64, error)
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

// Do implements Backend: both halves in sequence, without a bound.
func (b *LocalBackend) Do(req serve.Request) (uint64, error) {
	call, _, err := b.Send(req, time.Time{})
	if err != nil {
		return 0, err
	}
	return b.Recv(call, time.Time{})
}

// Send implements Splitter: it submits req to the node and returns its
// *serve.Ticket, which waits when the node's queue had no room for it.
func (b *LocalBackend) Send(req serve.Request, _ time.Time) (any, bool, error) {
	srv := b.Server()
	if srv == nil {
		return nil, false, ErrNodeDown
	}
	t, err := srv.Submit(req)
	if err != nil {
		return nil, false, err
	}
	return t, !t.Queued(), nil
}

// Recv implements Splitter: it waits for room in the node's queue, if
// the request found none, and for its reply, until at.
func (b *LocalBackend) Recv(call any, at time.Time) (uint64, error) {
	d := blockUntil(at)
	v, err := call.(*serve.Ticket).Wait(d)
	d.Stop()
	if errors.Is(err, serve.ErrOverloaded) || errors.Is(err, serve.ErrDeadline) {
		err = errCallTimeout
	}
	return v, err
}

// Ping implements Backend: a killed node fails, a live one answers. It
// never waits, so it ignores at.
func (b *LocalBackend) Ping(_ time.Time) error {
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
// slot is free; while every connection is out it waits for one until
// at.
func (b *RemoteBackend) get(at time.Time) (*serve.Conn, error) {
	c, err := b.idle()
	if c != nil || err != nil {
		return c, err
	}
	d := blockUntil(at)
	defer d.Stop()
	select {
	case c := <-b.conns:
		return c, nil
	case <-b.slots:
		return b.dial(at)
	case <-d.Done():
		return nil, errCallTimeout
	}
}

// idle checks an idle pooled connection out: (nil, nil) when there is
// none.
func (b *RemoteBackend) idle() (*serve.Conn, error) {
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
		return nil, nil
	}
}

// dial opens a connection in a slot taken for it, giving the slot back
// if the dial fails.
func (b *RemoteBackend) dial(at time.Time) (*serve.Conn, error) {
	c, err := serve.DialDeadline(b.addr, at)
	if err != nil {
		b.slots <- struct{}{}
		return nil, timeout(err)
	}
	return c, nil
}

// blockUntil is the serve.Deadline of a half that has to block until at:
// nil (no bound) for a zero at.
func blockUntil(at time.Time) *serve.Deadline {
	if at.IsZero() {
		return nil
	}
	return &serve.Deadline{At: at}
}

// timeout reports a socket operation its deadline cut short as
// errCallTimeout.
func timeout(err error) error {
	if err == nil {
		return nil
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return errCallTimeout
	}
	return err
}

// put returns a connection to the pool after a command that ended with
// err. A node's own "ERR ..." answer (draining, retries exhausted,
// deadline) leaves the line protocol in sync, so the connection is kept;
// after any other error it is closed and its slot freed for a fresh dial.
func (b *RemoteBackend) put(c *serve.Conn, err error) {
	if err != nil {
		var refused *serve.ServerError
		if !errors.As(err, &refused) {
			c.Close()
			b.slots <- struct{}{}
			return
		}
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

// Do implements Backend: both halves in sequence, without a bound.
func (b *RemoteBackend) Do(req serve.Request) (uint64, error) {
	call, _, err := b.Send(req, time.Time{})
	if err != nil {
		return 0, err
	}
	return b.Recv(call, time.Time{})
}

// unsent is a RemoteBackend call Send could not start: no connection
// was idle.
type unsent struct{ req serve.Request }

// collectGrace is how long a read started after its fan-out's deadline
// may take: long enough to take a reply that has already arrived (a
// socket read fails at once once its deadline has passed, data or
// not), too short to wait for one.
const collectGrace = time.Millisecond

// Send implements Splitter: it checks an idle connection out and writes
// the command on it, bounded by at; the call is the *serve.Conn. With no
// connection idle it neither dials nor waits: the call is left for Recv
// to start.
func (b *RemoteBackend) Send(req serve.Request, at time.Time) (any, bool, error) {
	c, err := b.idle()
	if err != nil {
		return nil, false, err
	}
	if c == nil {
		return &unsent{req}, true, nil
	}
	if err := b.start(c, req, at); err != nil {
		return nil, false, err
	}
	return c, false, nil
}

// start writes req on c, bounded by at; a failed write gives c back.
func (b *RemoteBackend) start(c *serve.Conn, req serve.Request, at time.Time) error {
	if err := c.Start(req, at); err != nil {
		err = timeout(err)
		b.put(c, err)
		return err
	}
	return nil
}

// Recv implements Splitter: it starts an unsent call, reads the reply
// and returns the connection to the pool — or closes it when the read
// failed or timed out, so no connection is pooled with a reply still
// in flight.
func (b *RemoteBackend) Recv(call any, at time.Time) (uint64, error) {
	c, ok := call.(*serve.Conn)
	if !ok {
		var err error
		if c, err = b.get(at); err != nil {
			return 0, err
		}
		if err = b.start(c, call.(*unsent).req, at); err != nil {
			return 0, err
		}
	}
	if !at.IsZero() {
		if now := time.Now(); !now.Before(at) {
			at = now.Add(collectGrace)
		}
	}
	v, err := c.Finish(at)
	err = timeout(err)
	b.put(c, err)
	return v, err
}

// Ping implements Backend: the connection checkout, a dial and the
// round trip all end by at; a probe at cuts short fails with
// errCallTimeout and its connection is closed, not pooled.
func (b *RemoteBackend) Ping(at time.Time) error {
	c, err := b.get(at)
	if err != nil {
		return err
	}
	err = timeout(c.Ping(at))
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
