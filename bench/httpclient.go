package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection with one request outstanding
// at a time: the load generator's unit. It writes requests by hand and
// parses replies with net/http's reader, which keeps the client's own CPU
// per request well below the daemon's.
//
// The socket is in blocking mode and read with plain system calls, so a
// sender waiting for a reply sits in the kernel on a thread of its own and
// is woken by the reply itself. Left to the runtime's network poller, a
// reply to one sender was noticed only when the other sender's pacing sleep
// ended: acks then read as the gap between two sends (356 µs at 3,000
// pods/s on two connections, 534 µs at 2,000) whatever the daemon did.
type conn struct {
	c    *os.File
	br   *bufio.Reader
	host string
	req  []byte
	body []byte
	// scratch receives reply-body reads before they are appended to body.
	scratch [512]byte
}

// ioTimeout bounds one read or write on a conn.
const ioTimeout = 30 * time.Second

func dial(addr string) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	f, err := nc.(*net.TCPConn).File()
	if err != nil {
		return nil, err
	}
	fd := int(f.Fd()) // Fd puts the duplicate into blocking mode
	tv := syscall.NsecToTimeval(ioTimeout.Nanoseconds())
	for _, opt := range []int{syscall.SO_RCVTIMEO, syscall.SO_SNDTIMEO} {
		if err := syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, opt, &tv); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &conn{c: f, br: bufio.NewReaderSize(f, 8<<10), host: addr}, nil
}

func (c *conn) close() { c.c.Close() }

// do sends one request and reads the whole reply. auth is a bearer token or
// empty. The returned body is valid until the next call. wire is the number
// of request bytes written.
func (c *conn) do(method, path, auth string, body []byte) (status int, reply []byte, wire int, err error) {
	b := c.req[:0]
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.host...)
	if auth != "" {
		b = append(b, "\r\nAuthorization: Bearer "...)
		b = append(b, auth...)
	}
	if body != nil {
		b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	c.req = b
	if _, err := c.c.Write(b); err != nil {
		return 0, nil, 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, len(b), err
	}
	c.body = c.body[:0]
	for {
		n, rerr := resp.Body.Read(c.scratch[:])
		c.body = append(c.body, c.scratch[:n]...)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			resp.Body.Close()
			return resp.StatusCode, nil, len(b), rerr
		}
	}
	resp.Body.Close()
	if resp.Close {
		return resp.StatusCode, c.body, len(b), fmt.Errorf("server closed the keep-alive connection")
	}
	return resp.StatusCode, c.body, len(b), nil
}

// serveNoop is the whole of `bench -noop-server`: a server that accepts
// what POST /v1/pods accepts and does nothing with it. It reads the body and
// answers 202 with a reply of the daemon's size. The round trip to it is the
// floor under any ack latency on this box: loopback TCP, net/http's server
// loop in a process of its own, and the bench's client. It prints its
// address and serves until its standard input closes.
func serveNoop() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/pods", func(rw http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // a short read shows as a client error
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusAccepted)
		io.WriteString(rw, "{\n  \"id\": 0,\n  \"status\": \"queued\"\n}\n") //nolint:errcheck
	})
	go http.Serve(ln, mux) //nolint:errcheck // ends with the process
	fmt.Println(ln.Addr().String())
	io.Copy(io.Discard, os.Stdin) //nolint:errcheck // any end of input is the signal to stop
	return nil
}

// startNoopServer runs serveNoop in a child process and returns its address
// and a function that stops it and waits for it.
func startNoopServer() (addr string, stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return "", nil, err
	}
	cmd := exec.Command(self, "-noop-server")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return "", nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, err
	}
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}
	stop = func() {
		stdin.Close()
		cmd.Wait() //nolint:errcheck // it has nothing left to report
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		stop()
		return "", nil, fmt.Errorf("no-op server did not report its address: %w", err)
	}
	return strings.TrimSpace(line), stop, nil
}

// setHTTPFloor posts the workload's own pod bodies to the no-op server over
// one connection and records the median round trip and the bytes on the
// wire per request.
func setHTTPFloor(r *result, tr *tracer, in layerInputs) {
	start := time.Now()
	err := func() error {
		addr, stop, err := startNoopServer()
		if err != nil {
			return err
		}
		defer stop()
		c, err := dial(addr)
		if err != nil {
			return err
		}
		defer c.close()
		var us []float64
		var wire int
		for i, body := range in.Bodies {
			t0 := time.Now()
			status, _, n, err := c.do("POST", "/v1/pods", benchTokens[i%len(benchTokens)], body)
			if err != nil {
				return err
			}
			if status != http.StatusAccepted {
				return fmt.Errorf("no-op server answered %d", status)
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			wire += n
		}
		if len(us) == 0 {
			return fmt.Errorf("no pod bodies")
		}
		r.set("unischedd.http_floor_us", median(us))
		r.set("unischedd.req_bytes_per_pod", float64(wire)/float64(len(us)))
		return nil
	}()
	tr.endAt(spProbe, start, time.Now(), -1)
	if err != nil {
		r.note("probe unischedd.http_floor: %v", err)
	}
}
