package binproto

import (
	"bufio"
	"fmt"
	"net"

	"repro/internal/engine"
)

// Client is one binary-protocol connection. It is synchronous and not
// safe for concurrent use: one ScoreBatch at a time per client, one
// client per goroutine (the protocol itself pipelines by opening more
// connections, which is what the benchmark/ generator's lanes do).
//
// Decoded responses reuse client-owned buffers, and their strings are
// zero-copy views into the receive buffer: everything returned by
// ScoreBatch is valid only until the next call. Callers that retain
// responses must copy them.
type Client struct {
	conn net.Conn
	br   *bufio.Reader

	out       []byte
	payload   []byte
	resps     []engine.Response
	positions []float64
	ranked    []RankedCandidate
	optResult OptimizeResult
	hdr       [HeaderSize]byte

	// seq generates per-frame request tags; the server echoes each one
	// in the matching response header and the client verifies the echo.
	seq uint16
}

// Dial connects a client to a binary-protocol (or muxed) address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// ScoreBatch sends one score frame and decodes the matching result
// frame. Per-request failures come back inside each Response.Error;
// the returned error is connection- or protocol-level.
func (c *Client) ScoreBatch(reqs []engine.Request) ([]engine.Response, error) {
	var zeroHdr [HeaderSize]byte
	c.out = append(c.out[:0], zeroHdr[:]...)
	var err error
	if c.out, err = AppendRequests(c.out, reqs); err != nil {
		return nil, err
	}
	c.seq++
	putHeaderTag(c.out, FrameScore, c.seq, len(c.out)-HeaderSize)
	if _, err := c.conn.Write(c.out); err != nil {
		return nil, err
	}

	ftype, tag, payload, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	switch ftype {
	case FrameResult:
		if tag != c.seq {
			return nil, fmt.Errorf("binproto: response tag %d does not echo request tag %d", tag, c.seq)
		}
		return c.decodeResponses(payload)
	case FrameError:
		r := reader{b: payload}
		msg := r.str()
		if err := r.done(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("binproto: server error: %s", msg)
	default:
		return nil, fmt.Errorf("binproto: unexpected frame type %d (want result)", ftype)
	}
}

// RankedCandidate is one entry of an optimize result: the candidate's
// position in the request's candidate list and its predicted scores.
type RankedCandidate struct {
	Index int
	CTR   float64
	Score float64
}

// OptimizeResult is the decoded optimize-result frame. Best is the
// winning candidate's index, or -1 when no candidate beats the base.
// A semantic scoring failure (unknown model, macro model) arrives in
// Err with everything else zero; the connection stays usable.
type OptimizeResult struct {
	ID           string
	Model        string
	ModelVersion int
	BaseCTR      float64
	BaseScore    float64
	Best         int
	Ranked       []RankedCandidate
	Err          string
}

// Optimize sends one optimize frame (one query × N candidate
// snippets) and decodes the matching optimize-result frame. Like
// ScoreBatch, the result reuses client-owned buffers and is valid only
// until the next call.
func (c *Client) Optimize(req OptimizeRequest) (*OptimizeResult, error) {
	var zeroHdr [HeaderSize]byte
	c.out = append(c.out[:0], zeroHdr[:]...)
	var err error
	if c.out, err = AppendOptimize(c.out, &req); err != nil {
		return nil, err
	}
	c.seq++
	putHeaderTag(c.out, FrameOptimize, c.seq, len(c.out)-HeaderSize)
	if _, err := c.conn.Write(c.out); err != nil {
		return nil, err
	}

	ftype, tag, payload, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	switch ftype {
	case FrameOptimizeResult:
		if tag != c.seq {
			return nil, fmt.Errorf("binproto: response tag %d does not echo request tag %d", tag, c.seq)
		}
		return c.decodeOptimizeResult(payload)
	case FrameError:
		r := reader{b: payload}
		msg := r.str()
		if err := r.done(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("binproto: server error: %s", msg)
	default:
		return nil, fmt.Errorf("binproto: unexpected frame type %d (want optimize result)", ftype)
	}
}

func (c *Client) decodeOptimizeResult(payload []byte) (*OptimizeResult, error) {
	r := reader{b: payload}
	res := &c.optResult
	*res = OptimizeResult{}
	res.ID = r.str()
	res.Model = r.str()
	res.ModelVersion = int(r.u32())
	res.BaseCTR = r.f64()
	res.BaseScore = r.f64()
	res.Best = int(r.u32()) - 1
	n := int(r.u32())
	if r.err == nil && n > MaxBatch {
		return nil, fmt.Errorf("binproto: ranked set of %d exceeds the %d limit", n, MaxBatch)
	}
	if cap(c.ranked) < n {
		c.ranked = make([]RankedCandidate, n)
	}
	c.ranked = c.ranked[:n]
	for i := 0; i < n && r.err == nil; i++ {
		c.ranked[i] = RankedCandidate{Index: int(r.u32()), CTR: r.f64(), Score: r.f64()}
	}
	res.Err = r.str()
	if err := r.done(); err != nil {
		return nil, err
	}
	res.Ranked = c.ranked
	return res, nil
}

func (c *Client) readFrame() (byte, uint16, []byte, error) {
	if _, err := readFull(c.br, c.hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	ftype, tag, n, err := parseHeader(c.hdr[:])
	if err != nil {
		return 0, 0, nil, err
	}
	if cap(c.payload) < n {
		c.payload = make([]byte, n)
	}
	c.payload = c.payload[:n]
	if _, err := readFull(c.br, c.payload); err != nil {
		return 0, 0, nil, err
	}
	return ftype, tag, c.payload, nil
}

func readFull(br *bufio.Reader, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		k, err := br.Read(p[n:])
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func (c *Client) decodeResponses(payload []byte) ([]engine.Response, error) {
	r := reader{b: payload}
	n := int(r.u32())
	if r.err == nil && n > MaxBatch {
		return nil, fmt.Errorf("binproto: response batch of %d exceeds the %d limit", n, MaxBatch)
	}
	if cap(c.resps) < n {
		c.resps = make([]engine.Response, n)
	}
	c.resps = c.resps[:n]
	c.positions = c.positions[:0]

	// Positions are collected into one arena first (append may move
	// it), then sliced out once it is final.
	type posSpan struct{ start, n int }
	pspans := make([]posSpan, n)
	for i := 0; i < n && r.err == nil; i++ {
		resp := &c.resps[i]
		*resp = engine.Response{}
		resp.ID = r.str()
		resp.Model = r.str()
		resp.ModelVersion = int(r.u32())
		resp.CTR = r.f64()
		resp.Score = r.f64()
		np := int(r.u16())
		pspans[i] = posSpan{start: len(c.positions), n: np}
		for j := 0; j < np && r.err == nil; j++ {
			c.positions = append(c.positions, r.f64())
		}
		resp.Error = r.str()
		if resp.Error != "" {
			resp.Err = fmt.Errorf("%s", resp.Error)
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	for i := range c.resps {
		if pspans[i].n > 0 {
			c.resps[i].Positions = c.positions[pspans[i].start : pspans[i].start+pspans[i].n : pspans[i].start+pspans[i].n]
		}
	}
	return c.resps, nil
}
