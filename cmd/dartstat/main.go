// Command dartstat is a top-like live console for a running dartd: it
// tails the GET /v1/events SSE firehose, polls GET /metrics, and redraws
// a one-screen summary — queue depth, per-kind event counts, service
// totals, and a table of recent jobs with their live branch-and-bound
// gap, incumbent, node throughput, and component progress.
//
// Usage:
//
//	dartstat [-addr http://localhost:8080] [-interval 2s] [-once]
//
// -once renders a single frame (from the replay ring and one metrics
// scrape) without clearing the screen and exits — the scripting mode.
// Live events need dartd started with -event-buffer > 0.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dart/internal/obs"
	"dart/internal/sse"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dartstat:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "dartd base URL")
		interval = flag.Duration("interval", 2*time.Second, "redraw and metrics poll interval")
		once     = flag.Bool("once", false, "render one frame from the replay ring and exit")
	)
	flag.Parse()
	base := strings.TrimRight(*addr, "/")

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	model := newStatModel()
	scrape := func() {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			return
		}
		defer resp.Body.Close()
		if samples, err := parseMetrics(resp.Body); err == nil {
			model.SetMetrics(samples)
		}
	}

	if *once {
		scrape()
		if err := tailEvents(ctx, base+"/v1/events?replay=only", model); err != nil {
			model.SetStreamErr(err.Error())
		}
		model.Render(os.Stdout, time.Now(), false)
		return nil
	}

	// Live mode: one goroutine tails the firehose (reconnecting with the
	// last seen seq), the main loop scrapes and redraws.
	go func() {
		for ctx.Err() == nil {
			url := base + "/v1/events"
			if seq := model.LastSeq(); seq > 0 {
				url += fmt.Sprintf("?after_seq=%d", seq)
			}
			if err := tailEvents(ctx, url, model); err != nil && ctx.Err() == nil {
				model.SetStreamErr(err.Error())
			}
			select {
			case <-ctx.Done():
			case <-time.After(*interval):
			}
		}
	}()

	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		scrape()
		model.Render(os.Stdout, time.Now(), true)
		select {
		case <-ctx.Done():
			fmt.Println()
			return nil
		case <-tick.C:
		}
	}
}

// tailEvents streams one SSE connection into the model until the stream
// ends or ctx is cancelled.
func tailEvents(ctx context.Context, url string, model *statModel) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	model.SetStreamErr("")
	r := sse.NewReader(resp.Body)
	for {
		frame, err := r.Next()
		if err != nil {
			if err == io.EOF || ctx.Err() != nil {
				return nil // server closed the stream cleanly
			}
			return err
		}
		var ev obs.Event
		if json.Unmarshal([]byte(frame.Data), &ev) == nil {
			model.Observe(ev)
		}
	}
}
