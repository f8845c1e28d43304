package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"

	"psigene/internal/httpx"
)

// wireRequest is one pooled request as pre-built HTTP/1.1 bytes, split
// around the caller key so a send is two copies and one integer format:
// head + decimal key + tail.
type wireRequest struct {
	head, tail []byte
}

// buildWire renders r as an origin-form HTTP/1.1 request. The target must
// survive net/http's request-line parser byte for byte (the gateway scores
// r.URL.RawQuery), so a target with a space or a control byte is an error
// rather than something to escape.
func buildWire(r httpx.Request) (wireRequest, error) {
	target := r.URL()
	for i := 0; i < len(target); i++ {
		if c := target[i]; c <= ' ' || c >= 0x7f {
			return wireRequest{}, fmt.Errorf("bench: request target %q is not wire-safe at byte %d", target, i)
		}
	}
	var head, tail bytes.Buffer
	fmt.Fprintf(&head, "%s %s HTTP/1.1\r\nHost: %s\r\n%s: c", r.Method, target, r.Host, clientKeyHdr)
	tail.WriteString("\r\n")
	if r.Body != "" {
		fmt.Fprintf(&tail, "Content-Type: application/x-www-form-urlencoded\r\nContent-Length: %d\r\n", len(r.Body))
	}
	tail.WriteString("\r\n")
	tail.WriteString(r.Body)
	return wireRequest{head: head.Bytes(), tail: tail.Bytes()}, nil
}

// appendTo assembles the request for caller key k into dst.
func (w wireRequest) appendTo(dst []byte, k uint32) []byte {
	dst = append(dst, w.head...)
	dst = strconv.AppendUint(dst, uint64(k), 10)
	return append(dst, w.tail...)
}

var contentLength = []byte("content-length:")

// readResponse consumes one HTTP/1.1 response with a Content-Length body
// from br and returns its status code. Both servers on the path (the
// daemon and the stub upstream) always send Content-Length; a response
// without one is reported as an error, never guessed at.
func readResponse(br *bufio.Reader) (int, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, fmt.Errorf("bench: malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("bench: malformed status line %q", line)
	}
	length := -1
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if len(line) <= 2 {
			break
		}
		if len(line) > len(contentLength) && bytes.EqualFold(line[:len(contentLength)], contentLength) {
			length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(contentLength):])))
			if err != nil {
				return 0, fmt.Errorf("bench: malformed Content-Length %q", line)
			}
		}
	}
	if length < 0 {
		return 0, fmt.Errorf("bench: response %d carries no Content-Length", status)
	}
	if _, err := br.Discard(length); err != nil {
		return 0, err
	}
	return status, nil
}
