package main

import (
	"bufio"
	"io"
	"strings"
)

// sseEvent is one server-sent event of the control plane's /events feed.
type sseEvent struct {
	Type string
	Data string
}

// sseReader parses a text/event-stream body: "event:" and "data:" fields
// accumulate until a blank line dispatches the event; comment lines
// (leading ':', such as the plane's heartbeats) are skipped.
type sseReader struct {
	sc *bufio.Scanner
}

func newSSEReader(r io.Reader) *sseReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return &sseReader{sc: sc}
}

// Next returns the next complete event, or io.EOF at the end of the
// stream (a trailing event without its blank line is discarded, as the
// SSE specification requires).
func (r *sseReader) Next() (sseEvent, error) {
	var ev sseEvent
	var data []string
	for r.sc.Scan() {
		line := r.sc.Text()
		switch {
		case line == "":
			if ev.Type == "" && data == nil {
				continue // comment-only block
			}
			ev.Data = strings.Join(data, "\n")
			if ev.Type == "" {
				ev.Type = "message"
			}
			return ev, nil
		case strings.HasPrefix(line, ":"):
		default:
			field, value, _ := strings.Cut(line, ":")
			value = strings.TrimPrefix(value, " ")
			switch field {
			case "event":
				ev.Type = value
			case "data":
				data = append(data, value)
			}
		}
	}
	if err := r.sc.Err(); err != nil {
		return ev, err
	}
	return ev, io.EOF
}
