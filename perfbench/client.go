package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
)

// The serve workloads call the server's root handler in-process: no
// socket, so the timings hold only the server's own work.

// bodyReader is a rewindable request body.
type bodyReader struct {
	data []byte
	off  int
}

func (b *bodyReader) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *bodyReader) Close() error { return nil }

// recorder is a reusable ResponseWriter that keeps the reply.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (w *recorder) Header() http.Header { return w.hdr }

func (w *recorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *recorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}

// client sends requests one at a time through h, reusing its request,
// body reader and recorder between calls.
type client struct {
	h    http.Handler
	urls map[string]*url.URL
	req  http.Request
	body bodyReader
	rec  recorder
}

func newClient(h http.Handler) *client {
	c := &client{h: h, urls: map[string]*url.URL{}, rec: recorder{hdr: http.Header{}}}
	for _, ep := range endpoints {
		c.urls[ep] = &url.URL{Path: "/v1/" + ep}
	}
	return c
}

// do sends one POST /v1/<endpoint> and returns the status and the body;
// the body is valid until the next call.
func (c *client) do(endpoint string, body []byte) (int, []byte) {
	c.body = bodyReader{data: body}
	c.req = http.Request{
		Method: http.MethodPost, URL: c.urls[endpoint], Host: "perfbench",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, Body: &c.body, ContentLength: int64(len(body)),
	}
	clear(c.rec.hdr)
	c.rec.status = 0
	c.rec.body.Reset()
	c.h.ServeHTTP(&c.rec, &c.req)
	return c.rec.status, c.rec.body.Bytes()
}

// requestBody renders the JSON body of one request.
func requestBody(src string, t target) []byte {
	b, err := json.Marshal(struct {
		Source   string `json:"source"`
		Machine  string `json:"machine,omitempty"`
		Compiler string `json:"compiler,omitempty"`
	}{src, t.machine, t.compiler})
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return b
}
