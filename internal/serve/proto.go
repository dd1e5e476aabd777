package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/obs"
)

// The wire protocol is a line-oriented text protocol over TCP, in the
// spirit of the memcached ASCII protocol the §6.1 case study models:
//
//	get <key>            -> VALUE <hex-reply>
//	put <key> <value>    -> STORED <hex-reply>
//	scan <key> <n>       -> RANGE <hex> <hex> ...
//	stats                -> STATS <json metrics view>
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
// (cluster.Cluster). Stats is its metrics registry's view, which the
// "stats" reply carries as one JSON object.
type Handler interface {
	Do(req Request) (uint64, error)
	Scan(key uint64, n int) ([]uint64, error)
	Stats() obs.View
}

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

// maxLine bounds one command line; a longer one closes the connection.
const maxLine = 1 << 16

// ServeConn serves the text protocol on one connection against h until
// the peer quits or the connection fails, then closes it. Every
// command is answered with exactly one line, flushed before the next
// command is read. A line is read into the reader's buffer and parsed
// in place; only one longer than the buffer is copied.
func ServeConn(conn net.Conn, h Handler) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	var long []byte
	for {
		line, err := r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull && len(long) <= maxLine {
				line, err = r.ReadSlice('\n')
				long = append(long, line...)
			}
			if len(long) > maxLine {
				return
			}
			line = long
		}
		if err != nil && err != io.EOF {
			return // a line cut short by a failed read is not a command
		}
		if !dispatch(w, line, h) || w.Flush() != nil || err != nil {
			return
		}
	}
}

// dispatch handles one command line; it returns false when the
// connection should close. A line without a field (blank) is answered
// with nothing. Nothing is written for a command until its outcome is
// known, so a failure is always a whole "ERR" line. The parse reads the
// line in place: the language is strings.Fields over the line, a
// command word compared as strings.ToLower reads it, and numbers as
// strconv.ParseUint(tok, 0, 64) reads them.
func dispatch(w *bufio.Writer, line []byte, h Handler) bool {
	var f [3][]byte // the command word and the first two arguments
	last, n := fields(line, f[:])
	if n == 0 {
		return true
	}
	cmd := f[0]
	get, put := isWord(cmd, "get"), isWord(cmd, "put")
	// The optional trailing "tid=<hex>" token on get/put carries the
	// request's trace id across the wire.
	var tid uint64
	if (get || put) && n > 1 && len(last) >= 4 && string(last[:4]) == "tid=" {
		v, ok := parseNum(last[4:])
		if !ok {
			return fail(w, "bad tid: ", numErr(last[4:]))
		}
		tid, n = v, n-1
	}
	args := n - 1
	switch {
	case get:
		if args != 1 {
			return fail(w, "usage: get <key> [tid=<hex>]", "")
		}
		key, ok := parseNum(f[1])
		if !ok {
			return fail(w, "bad key: ", numErr(f[1]))
		}
		v, err := h.Do(Request{Key: key, TraceID: tid})
		if err != nil {
			return fail(w, err.Error(), "")
		}
		writeWord(w, "VALUE 0x", v)
	case put:
		if args != 2 {
			return fail(w, "usage: put <key> <value> [tid=<hex>]", "")
		}
		key, ok := parseNum(f[1])
		if !ok {
			return fail(w, "bad key: ", numErr(f[1]))
		}
		val, ok := parseNum(f[2])
		if !ok {
			return fail(w, "bad value: ", numErr(f[2]))
		}
		v, err := h.Do(Request{Write: true, Key: key, Value: val, TraceID: tid})
		if err != nil {
			return fail(w, err.Error(), "")
		}
		writeWord(w, "STORED 0x", v)
	case isWord(cmd, "scan"):
		if args != 2 {
			return fail(w, "usage: scan <key> <n>", "")
		}
		key, ok := parseNum(f[1])
		if !ok {
			return fail(w, "bad key: ", numErr(f[1]))
		}
		n, ok := parseNum(f[2])
		if !ok || n == 0 || n > maxScan {
			return fail(w, "bad count (1..", strconv.Itoa(maxScan)+")")
		}
		vs, err := h.Scan(key, int(n))
		if err != nil {
			return fail(w, err.Error(), "")
		}
		w.WriteString("RANGE")
		for _, v := range vs {
			w.Write(strconv.AppendUint(append(w.AvailableBuffer(), " 0x"...), v, 16))
		}
		w.WriteByte('\n')
	case isWord(cmd, "stats"):
		b, err := json.Marshal(h.Stats())
		if err != nil { // a NaN or infinite sample has no JSON form
			return fail(w, err.Error(), "")
		}
		w.WriteString("STATS ")
		w.Write(b)
		w.WriteByte('\n')
	case isWord(cmd, "ping"):
		w.WriteString("PONG\n")
	case isWord(cmd, "quit"):
		return false
	default:
		return fail(w, "unknown command ", strconv.Quote(strings.ToLower(string(cmd))))
	}
	return true
}

// fail writes the one "ERR" line of a failed command.
func fail(w *bufio.Writer, msg, detail string) bool {
	w.WriteString("ERR ")
	w.WriteString(msg)
	w.WriteString(detail)
	w.WriteByte('\n')
	return true
}

// writeWord writes a one-word reply line: tag, then v in hex.
func writeWord(w *bufio.Writer, tag string, v uint64) {
	b := strconv.AppendUint(append(w.AvailableBuffer(), tag...), v, 16)
	w.Write(append(b, '\n'))
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// fields splits line around runs of white space as strings.Fields
// does, without allocating: it stores the first len(f) fields in f and
// returns the last field and the number of fields.
func fields(line []byte, f [][]byte) (last []byte, n int) {
	for tok, rest := cutField(line); tok != nil; tok, rest = cutField(rest) {
		last = tok
		if n < len(f) {
			f[n] = tok
		}
		n++
	}
	return last, n
}

// cutField returns the first field of line, as fields splits it, and
// the rest of the line after it; tok is nil when line has no field.
func cutField(line []byte) (tok, rest []byte) {
	i := 0
	for i < len(line) {
		size, space := spaceAt(line, i)
		if !space {
			break
		}
		i += size
	}
	if i == len(line) {
		return nil, nil
	}
	start := i
	for i < len(line) {
		size, space := spaceAt(line, i)
		if space {
			break
		}
		i += size
	}
	return line[start:i], line[i:]
}

// spaceAt returns the width of the character at line[i] and whether it
// is white space; a byte that is not valid UTF-8 is a character of its
// own that is not space, as in strings.Fields.
func spaceAt(line []byte, i int) (int, bool) {
	if c := line[i]; c < utf8.RuneSelf {
		return 1, asciiSpace[c]
	}
	r, size := utf8.DecodeRune(line[i:])
	return size, unicode.IsSpace(r)
}

// isWord reports whether strings.ToLower(tok) == word for a lower-case
// ASCII word. Only a token with a non-ASCII byte (which may lower to
// ASCII, as the Kelvin sign does to 'k') takes the allocating path.
func isWord(tok []byte, word string) bool {
	for i := 0; i < len(tok); i++ {
		if tok[i] >= utf8.RuneSelf {
			return strings.ToLower(string(tok)) == word
		}
	}
	if len(tok) != len(word) {
		return false
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != word[i] {
			return false
		}
	}
	return true
}

// parseNum reads a key, value, count or trace id as
// strconv.ParseUint(tok, 0, 64) does — decimal, a 0x, 0o or 0b prefix,
// a leading 0 for octal, '_' between digits after a prefix — without
// allocating, and reports whether ParseUint accepts tok.
func parseNum(tok []byte) (uint64, bool) {
	if len(tok) == 0 {
		return 0, false
	}
	base, s := uint64(10), tok
	if tok[0] == '0' {
		base, s = 8, tok[1:]
		if len(tok) >= 3 {
			switch tok[1] | 0x20 {
			case 'b':
				base, s = 2, tok[2:]
			case 'o':
				s = tok[2:]
			case 'x':
				base, s = 16, tok[2:]
			}
		}
	}
	var n uint64
	underscores := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch lc := c | 0x20; {
		case c == '_':
			underscores = true
			continue
		case '0' <= c && c <= '9':
			d = uint64(c - '0')
		case 'a' <= lc && lc <= 'z':
			d = uint64(lc-'a') + 10
		default:
			return 0, false
		}
		if d >= base {
			return 0, false
		}
		hi, lo := bits.Mul64(n, base)
		if n = lo + d; hi != 0 || n < lo {
			return 0, false
		}
	}
	if underscores && !underscoreOK(tok) {
		return 0, false
	}
	return n, true
}

// underscoreOK is strconv's rule for '_' in a base-prefixed number: it
// may only stand between digits, where a base prefix counts as a digit.
func underscoreOK(s []byte) bool {
	// saw is the class of the last character: '^' the start, '0' a
	// digit or base prefix, '_' an underscore, '!' anything else.
	saw, i, hex := byte('^'), 0, false
	if len(s) >= 2 && s[0] == '0' {
		if p := s[1] | 0x20; p == 'b' || p == 'o' || p == 'x' {
			saw, i, hex = '0', 2, p == 'x'
		}
	}
	for ; i < len(s); i++ {
		c := s[i]
		switch lc := c | 0x20; {
		case '0' <= c && c <= '9' || hex && 'a' <= lc && lc <= 'f':
			saw = '0'
		case c == '_':
			if saw != '0' {
				return false
			}
			saw = '_'
		case saw == '_':
			return false
		default:
			saw = '!'
		}
	}
	return saw != '_'
}

// numErr is the message strconv.ParseUint gives for a token parseNum
// refused.
func numErr(tok []byte) string {
	_, err := strconv.ParseUint(string(tok), 0, 64)
	return err.Error()
}

// Conn is a client connection to a serving layer's TCP endpoint. It is
// safe for concurrent use; commands are serialized per connection (use
// several Conns for parallel load, as haftload does).
type Conn struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	// want is the reply tag of the command Start wrote; deadline is the
	// socket's read and write deadline (zero: none), changed only when a
	// command asks for another.
	want     string
	deadline time.Time
}

// Dial connects to a serve endpoint.
func Dial(addr string) (*Conn, error) { return DialDeadline(addr, time.Time{}) }

// DialDeadline connects to a serve endpoint, giving up at the deadline
// (zero: no deadline).
func DialDeadline(addr string, at time.Time) (*Conn, error) {
	nc, err := (&net.Dialer{Deadline: at}).Dial("tcp", addr)
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

// setDeadline makes at the socket's read and write deadline (zero:
// none), unless it already is.
func (c *Conn) setDeadline(at time.Time) error {
	if at.Equal(c.deadline) {
		return nil
	}
	c.deadline = at
	return c.conn.SetDeadline(at)
}

// roundTrip sends one command line and returns the reply payload after
// stripping the expected tag, waiting no later than at (zero: no bound).
// An error that is not a *ServerError means the connection can no longer
// be trusted.
func (c *Conn) roundTrip(cmd, wantTag string, at time.Time) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.setDeadline(at); err != nil {
		return "", err
	}
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

// Start writes req as a get or put command (untagged when its TraceID
// is 0) and flushes it; Finish reads the reply. The write waits no later
// than at (zero: no bound); the socket's deadline stays at it until a
// later command asks for another, so a Finish by the same time costs no
// second deadline. The connection is held from Start until Finish
// returns, so every Start that succeeds must be followed by exactly one
// Finish.
func (c *Conn) Start(req Request, at time.Time) error {
	c.mu.Lock()
	if err := c.start(req, at); err != nil {
		c.mu.Unlock()
		return err
	}
	return nil
}

func (c *Conn) start(req Request, at time.Time) error {
	if err := c.setDeadline(at); err != nil {
		return err
	}
	b := c.w.AvailableBuffer()
	if req.Write {
		b = strconv.AppendUint(append(b, "put "...), req.Key, 10)
		b = strconv.AppendUint(append(b, ' '), req.Value, 10)
		c.want = "STORED"
	} else {
		b = strconv.AppendUint(append(b, "get "...), req.Key, 10)
		c.want = "VALUE"
	}
	if req.TraceID != 0 {
		b = strconv.AppendUint(append(b, " tid=0x"...), req.TraceID, 16)
	}
	if _, err := c.w.Write(append(b, '\n')); err != nil {
		return err
	}
	return c.w.Flush()
}

// Finish reads the reply to the command Start wrote, waiting no later
// than at (zero: no bound), and releases the connection. An error that
// is not a *ServerError means the connection can no longer be trusted.
func (c *Conn) Finish(at time.Time) (uint64, error) {
	defer c.mu.Unlock()
	if err := c.setDeadline(at); err != nil {
		return 0, err
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	return decodeWord(line, c.want)
}

// cutTag trims a reply line and returns it, split at its first space
// into the reply's tag and the rest.
func cutTag(line []byte) (trimmed, tag, rest []byte) {
	line = bytes.TrimSpace(line)
	if i := bytes.IndexByte(line, ' '); i >= 0 {
		return line, line[:i], line[i+1:]
	}
	return line, line, line[len(line):]
}

// decodeWord reads a one-word reply line tagged want ("VALUE" or
// "STORED"). An "ERR <message>" line gives a *ServerError; any other
// line that is not want and one number gives an error of another type.
func decodeWord(line []byte, want string) (uint64, error) {
	line, tag, rest := cutTag(line)
	switch {
	case string(tag) == want:
		if v, ok := parseNum(rest); ok {
			return v, nil
		}
		return 0, errors.New(numErr(rest))
	case string(tag) == "ERR":
		return 0, &ServerError{Msg: string(rest)}
	}
	return 0, fmt.Errorf("serve: unexpected reply %q", line)
}

// decodeRange reads a "RANGE <v> <v> ..." reply line in place, its
// values as strings.Fields and strconv.ParseUint(f, 0, 64) read them,
// and allocates only the slice it returns. An "ERR <message>" line gives
// a *ServerError.
func decodeRange(line []byte) ([]uint64, error) {
	line, tag, rest := cutTag(line)
	switch string(tag) {
	case "RANGE":
	case "ERR":
		return nil, &ServerError{Msg: string(rest)}
	default:
		return nil, fmt.Errorf("serve: unexpected reply %q", line)
	}
	_, n := fields(rest, nil)
	out := make([]uint64, 0, n)
	for f, rest := cutField(rest); f != nil; f, rest = cutField(rest) {
		v, ok := parseNum(f)
		if !ok {
			return nil, fmt.Errorf("serve: bad scan reply %q: %s", f, numErr(f))
		}
		out = append(out, v)
	}
	return out, nil
}

// call runs one get or put: Start, then Finish.
func (c *Conn) call(req Request) (uint64, error) {
	if err := c.Start(req, time.Time{}); err != nil {
		return 0, err
	}
	return c.Finish(time.Time{})
}

// Get reads a key.
func (c *Conn) Get(key uint64) (uint64, error) {
	return c.GetTraced(key, 0)
}

// GetTraced reads a key, tagging the request with a trace id (0 sends
// an untagged, backward-compatible command).
func (c *Conn) GetTraced(key, tid uint64) (uint64, error) {
	return c.call(Request{Key: key, TraceID: tid})
}

// Put writes a key and returns the server's reply word.
func (c *Conn) Put(key, value uint64) (uint64, error) {
	return c.PutTraced(key, value, 0)
}

// PutTraced writes a key, tagging the request with a trace id (0 sends
// an untagged, backward-compatible command).
func (c *Conn) PutTraced(key, value, tid uint64) (uint64, error) {
	return c.call(Request{Write: true, Key: key, Value: value, TraceID: tid})
}

// Scan reads n consecutive keys starting at key. The command is written
// into the connection's buffer and the reply decoded where it was read,
// so a scan allocates the slice it returns, and a copy of a reply line
// only when it is longer than the reader's buffer.
func (c *Conn) Scan(key uint64, n int) ([]uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.setDeadline(time.Time{}); err != nil {
		return nil, err
	}
	b := strconv.AppendUint(append(c.w.AvailableBuffer(), "scan "...), key, 10)
	b = strconv.AppendInt(append(b, ' '), int64(n), 10)
	if _, err := c.w.Write(append(b, '\n')); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	line, err := c.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			line, err = c.r.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if err != nil {
		return nil, err
	}
	return decodeRange(line)
}

// Stats fetches the endpoint's metrics view — a node's or a router's,
// each in its own registry's names.
func (c *Conn) Stats() (obs.View, error) {
	rest, err := c.roundTrip("stats", "STATS", time.Time{})
	if err != nil {
		return nil, err
	}
	var v obs.View
	if err := json.Unmarshal([]byte(rest), &v); err != nil {
		return nil, fmt.Errorf("serve: bad stats payload: %v", err)
	}
	return v, nil
}

// Ping round-trips a no-op command, waiting no later than at (zero: no
// bound).
func (c *Conn) Ping(at time.Time) error {
	_, err := c.roundTrip("ping", "PONG", at)
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
