package cluster

import (
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"
)

// stalledListener returns the address of a loopback listener whose
// accept queue is full and never drained. Linux drops a SYN that finds
// the queue full, so a dial to it completes no handshake and waits
// until its deadline — a node whose host is gone, as the router sees it.
func stalledListener(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	// Fill the queue: dials complete until one finds it full.
	for i := 0; ; i++ {
		if i == 16 {
			t.Fatalf("%d dials to a listener that never accepts completed", i)
		}
		c, err := net.DialTimeout("tcp", addr, 50*time.Millisecond)
		if err != nil {
			break
		}
		t.Cleanup(func() { c.Close() })
	}
	return addr
}

// TestFanoutStuckDial: a replica whose pool is empty and whose every
// dial hangs (its host drops SYNs) costs each request one call timeout,
// and the other two replicas still vote, uncharged. Its pool is empty
// from the start, as every pool is before the first request, so the
// first read also meets the healthy replicas with no connection.
func TestFanoutStuckDial(t *testing.T) {
	t.Parallel()
	backends := []Backend{
		NewRemoteBackend("stuck", stalledListener(t), 2),
		remoteNode(t, "node-1", 2),
		remoteNode(t, "node-2", 2),
	}
	c, err := New(backends, stuckClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	readThroughStuck(t, c)
}
