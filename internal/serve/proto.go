package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
)

// The wire protocol is a line-oriented text protocol over TCP, in the
// spirit of the memcached ASCII protocol the §6.1 case study models:
//
//	get <key>            -> VALUE <hex-reply>
//	put <key> <value>    -> STORED <hex-reply>
//	scan <key> <n>       -> RANGE <hex> <hex> ...
//	stats                -> STATS <json snapshot>
//	ping                 -> PONG
//	quit                 -> (connection closed)
//
// Any failure answers "ERR <message>" and keeps the connection open.
// Keys and values accept decimal or 0x-prefixed hex.
//
// get and put accept an optional trailing "tid=<hex>" token carrying
// the client's 64-bit trace id; servers without tracing simply thread
// it through to their obs events. Old clients never send it, old
// servers reject it loudly — the extension is opt-in per request.

// maxScan bounds one scan command.
const maxScan = 1024

// Handler is what the text protocol is served against: a single node
// (Server) or anything that routes to nodes while looking like one
// (cluster.Cluster). StatsJSON is the payload of the "stats" reply —
// the one place the two differ on the wire.
type Handler interface {
	Do(req Request) (uint64, error)
	Scan(key uint64, n int) ([]uint64, error)
	StatsJSON() []byte
}

// StatsJSON implements Handler: the node's metrics snapshot.
func (s *Server) StatsJSON() []byte { return s.Metrics().JSON() }

// ServeListener accepts connections on l and serves the text protocol
// until the server is closed (which also closes the listener) or the
// listener fails. Each connection gets its own goroutine; requests
// from all connections funnel into the shared bounded queue.
func (s *Server) ServeListener(l net.Listener) error {
	s.lmu.Lock()
	s.listeners = append(s.listeners, l)
	s.lmu.Unlock()
	go func() {
		<-s.closed
		l.Close()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.draining.Load() {
				// Shutdown closed the listener to stop admissions; the
				// accept failure is the clean end of serving, not an
				// error.
				return ErrClosed
			}
			select {
			case <-s.closed:
				return ErrClosed
			default:
				return err
			}
		}
		go ServeConn(conn, s)
	}
}

// ServeConn serves the text protocol on one connection against h until
// the peer quits or the connection fails, then closes it. Every
// command is answered with exactly one line, flushed before the next
// command is read.
func ServeConn(conn net.Conn, h Handler) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), 1<<16)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if !dispatch(w, line, h) {
			return
		}
		if w.Flush() != nil {
			return
		}
	}
}

// dispatch handles one command line; it returns false when the
// connection should close. Nothing is written for a command until its
// outcome is known, so a failure is always a whole "ERR" line.
func dispatch(w *bufio.Writer, line string, h Handler) bool {
	f := strings.Fields(line)
	cmd := strings.ToLower(f[0])
	args := f[1:]
	fail := func(format string, a ...any) bool {
		fmt.Fprintf(w, "ERR "+format+"\n", a...)
		return true
	}
	// The optional trailing "tid=<hex>" token on get/put carries the
	// request's trace id across the wire.
	var tid uint64
	if cmd == "get" || cmd == "put" {
		if n := len(args); n > 0 && strings.HasPrefix(args[n-1], "tid=") {
			v, err := parseNum(strings.TrimPrefix(args[n-1], "tid="))
			if err != nil {
				return fail("bad tid: %v", err)
			}
			tid, args = v, args[:n-1]
		}
	}
	switch cmd {
	case "get":
		if len(args) != 1 {
			return fail("usage: get <key> [tid=<hex>]")
		}
		key, err := parseNum(args[0])
		if err != nil {
			return fail("bad key: %v", err)
		}
		v, err := h.Do(Request{Key: key, TraceID: tid})
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(w, "VALUE %#x\n", v)
	case "put":
		if len(args) != 2 {
			return fail("usage: put <key> <value> [tid=<hex>]")
		}
		key, err := parseNum(args[0])
		if err != nil {
			return fail("bad key: %v", err)
		}
		val, err := parseNum(args[1])
		if err != nil {
			return fail("bad value: %v", err)
		}
		v, err := h.Do(Request{Write: true, Key: key, Value: val, TraceID: tid})
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(w, "STORED %#x\n", v)
	case "scan":
		if len(args) != 2 {
			return fail("usage: scan <key> <n>")
		}
		key, err := parseNum(args[0])
		if err != nil {
			return fail("bad key: %v", err)
		}
		n, err := parseNum(args[1])
		if err != nil || n == 0 || n > maxScan {
			return fail("bad count (1..%d)", maxScan)
		}
		vs, err := h.Scan(key, int(n))
		if err != nil {
			return fail("%v", err)
		}
		w.WriteString("RANGE")
		for _, v := range vs {
			fmt.Fprintf(w, " %#x", v)
		}
		w.WriteByte('\n')
	case "stats":
		fmt.Fprintf(w, "STATS %s\n", h.StatsJSON())
	case "ping":
		w.WriteString("PONG\n")
	case "quit":
		return false
	default:
		return fail("unknown command %q", cmd)
	}
	return true
}

func parseNum(tok string) (uint64, error) {
	return strconv.ParseUint(tok, 0, 64)
}

// Conn is a client connection to a serving layer's TCP endpoint. It is
// safe for concurrent use; commands are serialized per connection (use
// several Conns for parallel load, as haftload does).
type Conn struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// Dial connects to a serve endpoint.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Conn{
		conn: nc,
		r:    bufio.NewReader(nc),
		w:    bufio.NewWriter(nc),
	}, nil
}

// ServerError is a well-formed "ERR <message>" reply: the server refused
// or failed the command, and the connection is still in sync.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "serve: server error: " + e.Msg }

// roundTrip sends one command line and returns the reply payload after
// stripping the expected tag. An error that is not a *ServerError means
// the connection can no longer be trusted.
func (c *Conn) roundTrip(cmd, wantTag string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.w.WriteString(cmd + "\n"); err != nil {
		return "", err
	}
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimSpace(line)
	tag, rest, _ := strings.Cut(line, " ")
	switch tag {
	case wantTag:
		return rest, nil
	case "ERR":
		return "", &ServerError{Msg: rest}
	default:
		return "", fmt.Errorf("serve: unexpected reply %q", line)
	}
}

// Get reads a key.
func (c *Conn) Get(key uint64) (uint64, error) {
	return c.GetTraced(key, 0)
}

// GetTraced reads a key, tagging the request with a trace id (0 sends
// an untagged, backward-compatible command).
func (c *Conn) GetTraced(key, tid uint64) (uint64, error) {
	rest, err := c.roundTrip(fmt.Sprintf("get %d%s", key, tidToken(tid)), "VALUE")
	if err != nil {
		return 0, err
	}
	return parseNum(rest)
}

// Put writes a key and returns the server's reply word.
func (c *Conn) Put(key, value uint64) (uint64, error) {
	return c.PutTraced(key, value, 0)
}

// PutTraced writes a key, tagging the request with a trace id (0 sends
// an untagged, backward-compatible command).
func (c *Conn) PutTraced(key, value, tid uint64) (uint64, error) {
	rest, err := c.roundTrip(fmt.Sprintf("put %d %d%s", key, value, tidToken(tid)), "STORED")
	if err != nil {
		return 0, err
	}
	return parseNum(rest)
}

func tidToken(tid uint64) string {
	if tid == 0 {
		return ""
	}
	return fmt.Sprintf(" tid=%#x", tid)
}

// Scan reads n consecutive keys starting at key.
func (c *Conn) Scan(key uint64, n int) ([]uint64, error) {
	rest, err := c.roundTrip(fmt.Sprintf("scan %d %d", key, n), "RANGE")
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(rest)
	out := make([]uint64, 0, len(fields))
	for _, f := range fields {
		v, err := parseNum(f)
		if err != nil {
			return nil, fmt.Errorf("serve: bad scan reply %q: %v", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// Stats fetches the server's metrics snapshot.
func (c *Conn) Stats() (Snapshot, error) {
	rest, err := c.roundTrip("stats", "STATS")
	if err != nil {
		return Snapshot{}, err
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(rest), &s); err != nil {
		return Snapshot{}, fmt.Errorf("serve: bad stats payload: %v", err)
	}
	return s, nil
}

// StatsRaw fetches the stats payload as raw JSON without assuming the
// single-node snapshot shape — a cluster router answers "stats" with
// the cluster snapshot, which carries different fields.
func (c *Conn) StatsRaw() ([]byte, error) {
	rest, err := c.roundTrip("stats", "STATS")
	if err != nil {
		return nil, err
	}
	return []byte(rest), nil
}

// Ping round-trips a no-op command.
func (c *Conn) Ping() error {
	_, err := c.roundTrip("ping", "PONG")
	return err
}

// Close tears the connection down.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.WriteString("quit\n")
	c.w.Flush()
	return c.conn.Close()
}
