package main

import (
	"bufio"
	"bytes"
	"net"
	"net/http"
	"os"
	"strconv"
	"syscall"
	"time"

	"repro/internal/server/binproto"
)

// ioTimeout bounds one socket read or write so a wedged server fails
// the request instead of hanging the run.
const ioTimeout = 10 * time.Second

// blockingConn is a TCP socket in blocking mode, outside the Go
// runtime's network poller, as a net.Conn. A sender alternates
// nanosleep(2) with socket I/O on one thread; with netpoll sockets that
// pattern loses replies for up to 10 ms: the thread that was the
// runtime's one blocking poller goes into nanosleep, nobody else is
// told to poll, and the other connection's reply waits for sysmon's
// 10 ms backstop poll. A blocking read wakes when the kernel has the
// bytes, whatever the scheduler is doing.
//
// It also stamps the two instants that split a client call into the
// trace's spans: everything before the first Write of a call is the
// client's encode, everything after the last Read its decode.
type blockingConn struct {
	*os.File // Read/Write/Close on the blocking descriptor; deadlines report os.ErrNoDeadline
	local    net.Addr
	remote   net.Addr
	wrote    time.Time // entry of the first Write since reset
	read     time.Time // return of the latest Read
}

func dialBlocking(addr string) (*blockingConn, error) {
	c, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	f, err := c.(*net.TCPConn).File() // a dup of the same socket (TCP_NODELAY kept)
	local, remote := c.LocalAddr(), c.RemoteAddr()
	c.Close()
	if err != nil {
		return nil, err
	}
	fd := int(f.Fd()) // Fd switches the descriptor to blocking mode
	tv := syscall.NsecToTimeval(int64(ioTimeout))
	for _, opt := range []int{syscall.SO_RCVTIMEO, syscall.SO_SNDTIMEO} {
		if err := syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, opt, &tv); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &blockingConn{File: f, local: local, remote: remote}, nil
}

func (c *blockingConn) LocalAddr() net.Addr  { return c.local }
func (c *blockingConn) RemoteAddr() net.Addr { return c.remote }

func (c *blockingConn) Write(p []byte) (int, error) {
	if c.wrote.IsZero() {
		c.wrote = time.Now()
	}
	return c.File.Write(p)
}

func (c *blockingConn) Read(p []byte) (int, error) {
	n, err := c.File.Read(p)
	c.read = time.Now()
	return n, err
}

// mbspConn is one MBSP connection: the repo's own binproto.Client over
// a blocking socket, redialled after a connection-level error (error
// frames are connection-fatal by protocol).
type mbspConn struct {
	addr string
	conn *blockingConn
	cli  *binproto.Client
}

// client returns the connected client with the conn's stamps cleared
// for the next call.
func (m *mbspConn) client() (*binproto.Client, error) {
	if m.cli == nil {
		c, err := dialBlocking(m.addr)
		if err != nil {
			return nil, err
		}
		m.conn, m.cli = c, binproto.NewClient(c)
	}
	m.conn.wrote, m.conn.read = time.Time{}, time.Time{}
	return m.cli, nil
}

// stamp fills in t.encoded and t.received from the call that just
// returned; a call that never reached the socket encoded until now.
func (m *mbspConn) stamp(t *timing) {
	now := time.Now()
	t.encoded, t.received = now, now
	if m.conn != nil && !m.conn.wrote.IsZero() {
		t.encoded = m.conn.wrote
		if m.conn.read.After(t.encoded) {
			t.received = m.conn.read
		}
	}
}

func (m *mbspConn) close() {
	if m.cli != nil {
		m.cli.Close()
		m.conn, m.cli = nil, nil
	}
}

// httpConn is one persistent HTTP/1.1 connection: requests go out as
// hand-built bytes so a sender owns exactly one socket and the
// generator spends as little CPU as possible beside the server.
type httpConn struct {
	addr string
	c    *blockingConn
	br   *bufio.Reader
	out  []byte
	body bytes.Buffer
}

func (h *httpConn) ensure() error {
	if h.c != nil {
		return nil
	}
	c, err := dialBlocking(h.addr)
	if err != nil {
		return err
	}
	h.c = c
	if h.br == nil {
		h.br = bufio.NewReaderSize(c, 64<<10)
	} else {
		h.br.Reset(c)
	}
	return nil
}

func (h *httpConn) close() {
	if h.c != nil {
		h.c.Close()
		h.c = nil
	}
}

// post sends one JSON POST and returns the status and the response
// body, which is valid until the next call.
func (h *httpConn) post(path string, body []byte) (int, []byte, error) {
	if err := h.ensure(); err != nil {
		return 0, nil, err
	}
	h.out = append(h.out[:0], "POST "...)
	h.out = append(h.out, path...)
	h.out = append(h.out, " HTTP/1.1\r\nHost: "...)
	h.out = append(h.out, h.addr...)
	h.out = append(h.out, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	h.out = strconv.AppendInt(h.out, int64(len(body)), 10)
	h.out = append(h.out, "\r\n\r\n"...)
	h.out = append(h.out, body...)
	if _, err := h.c.Write(h.out); err != nil {
		h.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		h.close()
		return 0, nil, err
	}
	h.body.Reset()
	_, err = h.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		h.close()
	}
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, h.body.Bytes(), nil
}
