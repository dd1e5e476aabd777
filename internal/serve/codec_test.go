package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// FuzzParseNum: the protocol's number scanner accepts exactly what
// strconv.ParseUint(tok, 0, 64) accepts, with the same value.
func FuzzParseNum(f *testing.F) {
	for _, seed := range []string{
		"", "0", "7", "007", "08", "0x", "0x0", "0X1F", "0b101", "0B2", "0o17", "0O8", "0_7",
		"1_000", "_1", "1_", "0x_ff", "0x__f", "0b_", "0o_7_", "+1", "-1", "1e3", " 1",
		"18446744073709551615", "18446744073709551616", "0xffffffffffffffff", "0x10000000000000000",
		"0b1111111111111111111111111111111111111111111111111111111111111111", "99999999999999999999x",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		want, err := strconv.ParseUint(tok, 0, 64)
		v, ok := parseNum([]byte(tok))
		if ok != (err == nil) || ok && v != want {
			t.Fatalf("parseNum(%q) = %d, %v; ParseUint gives %d, %v", tok, v, ok, want, err)
		}
	})
}

// decodeByStrings is the reply decoder as Conn read replies before it
// decoded them in place: the reference decodeWord must agree with.
func decodeByStrings(line, want string) (uint64, error) {
	line = strings.TrimSpace(line)
	tag, rest, _ := strings.Cut(line, " ")
	switch tag {
	case want:
		return strconv.ParseUint(rest, 0, 64)
	case "ERR":
		return 0, &ServerError{Msg: rest}
	default:
		return 0, fmt.Errorf("serve: unexpected reply %q", line)
	}
}

// FuzzDecodeWord: the get/put reply decoder never panics and agrees
// with the string-based reference on every line: the same value, an
// "ERR ..." line as a *ServerError with the same message (the
// connection stays in sync), and any other malformed line as an error
// that is not a *ServerError (RemoteBackend drops the connection).
func FuzzDecodeWord(f *testing.F) {
	for _, seed := range []string{
		"VALUE 0x2a\n", "STORED 0xffffffffffffffff\r\n", "VALUE 0\n", "ERR serve: queue full\n", "ERR\n",
		"VALUE\n", "VALUE  0x1\n", "VALUE 0x1 0x2\n", "value 0x1\n", "STORED 0x\n", "\n", "",
		"PONG\n", "VALUE 0x10000000000000000\n", "  VALUE 7 ", "ERR\tno\n", "\xff\n",
	} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, line string, write bool) {
		want := "VALUE"
		if write {
			want = "STORED"
		}
		v, err := decodeWord([]byte(line), want)
		rv, rerr := decodeByStrings(line, want)
		var se, rse *ServerError
		switch {
		case (err == nil) != (rerr == nil):
			t.Fatalf("%q: %#x, %v; reference %#x, %v", line, v, err, rv, rerr)
		case err == nil && v != rv:
			t.Fatalf("%q: value %#x, reference %#x", line, v, rv)
		case err != nil && err.Error() != rerr.Error():
			t.Fatalf("%q: error %q, reference %q", line, err, rerr)
		case errors.As(err, &se) != errors.As(rerr, &rse):
			t.Fatalf("%q: %T, reference %T", line, err, rerr)
		}
	})
}

// decodeRangeByStrings is the scan reply decoder as Conn read replies
// before it decoded them in place: the reference decodeRange must agree
// with.
func decodeRangeByStrings(line string) ([]uint64, error) {
	line = strings.TrimSpace(line)
	tag, rest, _ := strings.Cut(line, " ")
	switch tag {
	case "RANGE":
	case "ERR":
		return nil, &ServerError{Msg: rest}
	default:
		return nil, fmt.Errorf("serve: unexpected reply %q", line)
	}
	fields := strings.Fields(rest)
	out := make([]uint64, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseUint(f, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("serve: bad scan reply %q: %v", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// FuzzDecodeRange: the scan reply decoder never panics and agrees with
// the string-based reference on every line: the same values, and the
// same error of the same kind.
func FuzzDecodeRange(f *testing.F) {
	for _, seed := range []string{
		"RANGE 0x2a 0x0 0xffffffffffffffff\n", "RANGE\n", "RANGE \n", "RANGE  0x1\t0x2\r\n", "RANGE\t0x1\n",
		"RANGE 0x1 zz\n", "RANGE 0x10000000000000000\n", "RANGE 1_0 0b11 0o7 07\n", "range 0x1\n",
		"ERR serve: server closed\n", "ERR\n", "VALUE 0x1\n", "\n", "", "RANGE 0x1\u00a00x2\n", "RANGE \xff\n",
		"  RANGE 7 8 ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		vs, err := decodeRange([]byte(line))
		rvs, rerr := decodeRangeByStrings(line)
		var se, rse *ServerError
		switch {
		case (err == nil) != (rerr == nil):
			t.Fatalf("%q: %v, %v; reference %v, %v", line, vs, err, rvs, rerr)
		case err == nil && !slices.Equal(vs, rvs):
			t.Fatalf("%q: values %v, reference %v", line, vs, rvs)
		case err != nil && err.Error() != rerr.Error():
			t.Fatalf("%q: error %q, reference %q", line, err, rerr)
		case errors.As(err, &se) != errors.As(rerr, &rse):
			t.Fatalf("%q: %T, reference %T", line, err, rerr)
		}
	})
}

// echoHandler answers a get with its key and a put with its value, and
// keeps the last request.
type echoHandler struct{ last Request }

func (h *echoHandler) Do(req Request) (uint64, error) {
	h.last = req
	if req.Write {
		return req.Value, nil
	}
	return req.Key, nil
}

// Scan answers n words counting down from 2^64-1-key: the widest
// replies the protocol has.
func (h *echoHandler) Scan(key uint64, n int) ([]uint64, error) {
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = 1<<64 - 1 - key - uint64(i)
	}
	return vs, nil
}

func (h *echoHandler) Stats() obs.View { return obs.View{} }

// TestCodecRoundTrip: get and put, traced and not, carry the extreme
// words 0 and 2^64-1 from a Conn through ServeConn and back unchanged.
func TestCodecRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	h := &echoHandler{}
	go ServeConn(server, h)
	c := &Conn{conn: client, r: bufio.NewReader(client), w: bufio.NewWriter(client)}
	defer c.Close()
	for _, key := range []uint64{0, 1<<64 - 1} {
		for _, val := range []uint64{0, 1<<64 - 1} {
			for _, tid := range []uint64{0, 1, 1<<64 - 1} {
				v, err := c.GetTraced(key, tid)
				if want := (Request{Key: key, TraceID: tid}); err != nil || v != key || h.last != want {
					t.Fatalf("get %#x tid %#x: %#x, %v; server saw %+v", key, tid, v, err, h.last)
				}
				v, err = c.PutTraced(key, val, tid)
				if want := (Request{Write: true, Key: key, Value: val, TraceID: tid}); err != nil || v != val || h.last != want {
					t.Fatalf("put %#x %#x tid %#x: %#x, %v; server saw %+v", key, val, tid, v, err, h.last)
				}
			}
		}
	}
}

// TestLongRangeLine: the reply to a scan of maxScan keys, a RANGE line
// longer than the client's read buffer, decodes whole, and the
// connection stays in sync for the command after it.
func TestLongRangeLine(t *testing.T) {
	client, server := net.Pipe()
	go ServeConn(server, &echoHandler{})
	c := &Conn{conn: client, r: bufio.NewReader(client), w: bufio.NewWriter(client)}
	defer c.Close()
	for _, n := range []int{1, maxScan, 2} {
		vs, err := c.Scan(7, n)
		if err != nil {
			t.Fatalf("scan of %d keys: %v", n, err)
		}
		if line := 5 + 19*n; n == maxScan && line <= c.r.Size() {
			t.Fatalf("a reply line of %d bytes fits the %d-byte read buffer", line, c.r.Size())
		}
		if len(vs) != n {
			t.Fatalf("scan of %d keys returned %d values", n, len(vs))
		}
		for i, v := range vs {
			if want := 1<<64 - 1 - 7 - uint64(i); v != want {
				t.Fatalf("scan of %d keys: value %d is %#x, want %#x", n, i, v, want)
			}
		}
	}
	if _, err := c.Scan(7, maxScan+1); err == nil || !strings.Contains(err.Error(), "bad count") {
		t.Fatalf("scan of maxScan+1 keys: %v, want a bad count error", err)
	}
}

// repeatReader reads one line over and over.
type repeatReader struct {
	line string
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.line[r.off:])
	r.off = (r.off + n) % len(r.line)
	return n, nil
}

// TestCodecAllocs: both ends of the get/put hop allocate nothing per
// command: the client's encoding of a traced put and decoding of its
// reply, and the server's parse of it and formatting of the reply.
func TestCodecAllocs(t *testing.T) {
	put := Request{Write: true, Key: 1<<64 - 1, Value: 12345, TraceID: 0xfeedface}
	c := &Conn{
		r: bufio.NewReader(&repeatReader{line: "STORED 0xffffffffffffffff\n"}),
		w: bufio.NewWriter(io.Discard),
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.start(put, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("encoding a traced put allocates %v objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			t.Fatal(err)
		}
		if v, err := decodeWord(line, "STORED"); err != nil || v != 1<<64-1 {
			t.Fatalf("decoded %#x, %v", v, err)
		}
	}); n != 0 {
		t.Errorf("decoding a put's reply allocates %v objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.Start(put, time.Time{}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Finish(time.Time{}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a put through Start and Finish allocates %v objects, want 0", n)
	}

	h := &fakeHandler{failFrom: 1<<64 - 1}
	w := bufio.NewWriter(io.Discard)
	for _, line := range []string{"put 0xfffffffffffffffe 12345 tid=0xfeedface\r\n", "GET 7 tid=0x1\n"} {
		b := []byte(line)
		if n := testing.AllocsPerRun(100, func() {
			if !dispatch(w, b, h) {
				t.Fatal("dispatch closed the connection")
			}
			w.Flush()
		}); n != 0 {
			t.Errorf("serving %q allocates %v objects, want 0", line, n)
		}
	}
}
