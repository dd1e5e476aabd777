package cluster

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestRemoteBackendKeepsConnAfterERR: a node's well-formed "ERR ..."
// reply (draining, retries exhausted, deadline) leaves the line protocol
// in sync, so the backend must keep the connection; only a reply that
// breaks the framing costs a fresh dial.
func TestRemoteBackendKeepsConnAfterERR(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var dials atomic.Int64
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			go func() {
				defer c.Close()
				sc := bufio.NewScanner(c)
				for sc.Scan() {
					reply := "ERR serve: server closed\n"
					switch f := strings.Fields(sc.Text()); {
					case len(f) == 0 || f[0] == "quit":
						return
					case f[0] == "ping":
						reply = "PONG\n"
					case f[0] == "put":
						reply = "STORED 0x2a\n"
					case f[1] == "99":
						reply = "garbage\n"
					}
					if _, err := c.Write([]byte(reply)); err != nil {
						return
					}
				}
			}()
		}
	}()

	b := NewRemoteBackend("n0", l.Addr().String(), 2)
	defer b.Close()
	var refused *serve.ServerError
	for i := 0; i < 20; i++ {
		if _, err := b.Do(serve.Request{Key: uint64(i)}); !errors.As(err, &refused) {
			t.Fatalf("get %d: %v, want the node's ERR as a *serve.ServerError", i, err)
		}
	}
	if err := b.Ping(time.Time{}); err != nil {
		t.Fatalf("ping after 20 refused requests: %v", err)
	}
	if v, err := b.Do(serve.Request{Write: true, Key: 1, Value: 2}); err != nil || v != 0x2a {
		t.Fatalf("put after 20 refused requests: %#x, %v", v, err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d dials for 22 sequential commands, 20 of them answered ERR; want 1", n)
	}

	// A reply outside the protocol is not a ServerError: that connection
	// is dropped and the next command dials again.
	if _, err := b.Do(serve.Request{Key: 99}); err == nil || errors.As(err, &refused) {
		t.Fatalf("get answered garbage: %v, want a framing error", err)
	}
	if err := b.Ping(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("%d dials after one framing error, want 2", n)
	}
}
