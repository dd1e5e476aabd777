package serve

import (
	"bufio"
	"bytes"
	"errors"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

// fakeHandler answers the protocol from a pure function, failing Do
// for keys >= failFrom and any scan whose range reaches such a key.
type fakeHandler struct {
	failFrom uint64
	last     Request
}

var errFake = errors.New("fake: backend said no")

func (f *fakeHandler) Do(req Request) (uint64, error) {
	f.last = req
	if req.Key >= f.failFrom {
		return 0, errFake
	}
	return req.Key*3 + req.Value, nil
}

func (f *fakeHandler) Scan(key uint64, n int) ([]uint64, error) {
	out := make([]uint64, n)
	for i := range out {
		v, err := f.Do(Request{Key: key + uint64(i)})
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (f *fakeHandler) Stats() obs.View { return obs.View{"requests": 7} }

// replyRE is the protocol's framing promise: one line, a known tag.
var replyRE = regexp.MustCompile(`^(VALUE|STORED|RANGE|STATS|PONG|ERR)( [^\n]*)?\n$`)

// dispatchLine runs one command line through the shared dispatch the
// way ServeConn does (trimmed, non-empty) and returns what was written.
func dispatchLine(h Handler, line string) (reply string, keepOpen bool) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	keepOpen = dispatch(w, []byte(line), h)
	w.Flush()
	return buf.String(), keepOpen
}

// TestDispatch is the table test of the one protocol server both the
// node and the router run: well-formed commands, every malformed
// shape, and handler failures in Do and mid-Scan all answer exactly
// one well-framed line.
func TestDispatch(t *testing.T) {
	h := &fakeHandler{failFrom: 100}
	for _, tc := range []struct {
		line, want string
	}{
		{"get 5", "VALUE 0xf\n"},
		{"GET 0x10", "VALUE 0x30\n"},
		{"put 2 4", "STORED 0xa\n"},
		{"get 5 tid=0xabc", "VALUE 0xf\n"},
		{"put 2 4 tid=7", "STORED 0xa\n"},
		{"scan 1 3", "RANGE 0x3 0x6 0x9\n"},
		{"stats", "STATS {\"requests\":7}\n"},
		{"ping", "PONG\n"},
		{"get 100", "ERR fake: backend said no\n"},
		{"put 100 1", "ERR fake: backend said no\n"},
		// The scan fails on its third key: the reply must be the
		// server's message alone, never a half-written RANGE line.
		{"scan 98 4", "ERR fake: backend said no\n"},
		{"get", "ERR usage: get <key> [tid=<hex>]\n"},
		{"get 1 2", "ERR usage: get <key> [tid=<hex>]\n"},
		{"get x", "ERR bad key: strconv.ParseUint: parsing \"x\": invalid syntax\n"},
		{"get 1 tid=zz", "ERR bad tid: strconv.ParseUint: parsing \"zz\": invalid syntax\n"},
		{"get tid=1", "ERR usage: get <key> [tid=<hex>]\n"},
		{"put 1", "ERR usage: put <key> <value> [tid=<hex>]\n"},
		{"put 1 y", "ERR bad value: strconv.ParseUint: parsing \"y\": invalid syntax\n"},
		{"scan 1", "ERR usage: scan <key> <n>\n"},
		{"scan 1 0", "ERR bad count (1..1024)\n"},
		{"scan 1 1025", "ERR bad count (1..1024)\n"},
		{"scan 1 3 tid=1", "ERR usage: scan <key> <n>\n"},
		{"frobnicate", "ERR unknown command \"frobnicate\"\n"},
	} {
		got, keepOpen := dispatchLine(h, tc.line)
		if got != tc.want || !keepOpen {
			t.Errorf("%q -> %q (keep open %v), want %q", tc.line, got, keepOpen, tc.want)
		}
		if !replyRE.MatchString(got) {
			t.Errorf("%q -> %q: not one well-framed line", tc.line, got)
		}
	}
	if _, ok := dispatchLine(h, "get 9 tid=0xfeed"); !ok || h.last.TraceID != 0xfeed || h.last.Key != 9 {
		t.Errorf("tid token not threaded into the request: %+v", h.last)
	}
	if got, keepOpen := dispatchLine(h, "quit"); got != "" || keepOpen {
		t.Errorf("quit -> %q (keep open %v), want silence and close", got, keepOpen)
	}
}

// FuzzDispatch: no input line panics the shared dispatch, and whatever
// it answers is one line with a known tag (or nothing, for quit).
func FuzzDispatch(f *testing.F) {
	for _, seed := range []string{
		"get 1", "put 1 2 tid=0xff", "scan 5 1024", "scan 99 5", "stats", "ping", "quit",
		"get tid=", "put tid=1 tid=2", "GET\t0x7fffffffffffffff", "scan 0 18446744073709551615",
		"get 1 tid=-1", "\x00", "put 1 2 3 4 5",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		line = strings.TrimSpace(line)
		if line == "" || strings.Contains(line, "\n") {
			t.Skip() // ServeConn hands dispatch trimmed, non-empty, single lines
		}
		got, keepOpen := dispatchLine(&fakeHandler{failFrom: 100}, line)
		if got == "" && !keepOpen {
			return // quit
		}
		if !keepOpen || !replyRE.MatchString(got) {
			t.Fatalf("%q -> %q (keep open %v)", line, got, keepOpen)
		}
	})
}
