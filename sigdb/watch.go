package sigdb

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"
)

// defaultWatchWait bounds how long one watch request parks server-side
// before answering 304. Under common LB/proxy idle timeouts (60s), so a
// parked request completes before an intermediary kills it; clients
// reconnect immediately on the tick, so the stream is effectively
// continuous.
const defaultWatchWait = 55 * time.Second

// ErrWatchUnsupported reports that the server has no watch endpoint
// (404/405/501); Run reports it once and targets the client's URL with
// jittered conditional GETs for the rest of its life.
var ErrWatchUnsupported = errors.New("sigdb: server does not support watch")

// WatchHandler serves the server-push side of the distribution channel:
//
//	GET <path>?since=<version>[&delta=1]
//
// A request whose since is behind the store answers immediately with the
// same body Handler would serve (full snapshot, or per-family delta when
// asked for and smaller). A current request parks until the
// next publish — completing the moment a newer version installs, so a
// version change reaches every parked replica in ~1 RTT instead of a
// poll interval — or until the wait bound elapses, which answers 304 and
// lets the client reconnect (long-poll heartbeat). Closed client
// connections release their parked goroutine via the request context.
func (s *Store) WatchHandler() http.Handler { return s.watchHandler(defaultWatchWait) }

// watchHandler is WatchHandler with the park bound injectable (tests use
// short waits to pin the 304 heartbeat).
func (s *Store) watchHandler(maxWait time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		since := int64(-1)
		if q := r.URL.Query().Get("since"); q != "" {
			v, err := strconv.ParseInt(q, 10, 64)
			if err != nil {
				http.Error(w, "bad since parameter", http.StatusBadRequest)
				return
			}
			since = v
		}
		deadline := time.NewTimer(maxWait)
		defer deadline.Stop()
		for {
			// Subscribe before reading the version: a publish landing
			// between the two closes the channel we are about to park on,
			// so it can never be missed.
			changed := s.versionWatch()
			live, delta := s.snapshotAndDelta(since)
			if live.version > since {
				w.Header().Set("ETag", versionETag(live.version))
				writeSetResponse(w, r, live, delta)
				return
			}
			select {
			case <-changed:
			case <-r.Context().Done():
				return
			case <-deadline.C:
				w.Header().Set("ETag", versionETag(live.version))
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
	})
}

const (
	// defaultWatchFloor paces no-update watch rounds. A healthy round
	// either delivers an update or parks server-side for tens of
	// seconds, so one finishing faster means something in the path (an
	// eager intermediary, a non-store implementation) answers at once —
	// and with no floor every replica would spin the fleet's full
	// request rate against it.
	defaultWatchFloor = time.Second
	// minBackoff and maxBackoff bound Run's doubling backoff after a
	// failed round.
	minBackoff = 250 * time.Millisecond
	maxBackoff = 15 * time.Second
)

// Run keeps the client current until ctx cancels. It is one loop; each
// round is one GET through Fetch's deploy gates, so a pushed update
// obeys exactly the gates a polled one does. Rounds target the watch
// endpoint (URL + "/watch", sigserve's mount), which answers a client
// that is behind at once and parks a current one until the next publish.
// A server answering 404, 405 or 501 there has no watch endpoint; Run
// then targets URL for good — a watch with zero park time.
//
// After an update Run hands it to apply and starts the next round at
// once. After a round with no update it waits until a jittered floor has
// passed since the round began: 1s against the watch endpoint, interval
// against URL. After a failed round it reports the error to onError
// (which may be nil) and backs off from 250ms, doubling to 15s, never
// waiting less than the floor — a crashed server is not hammered by the
// whole fleet reconnecting. Like Fetch, Run must be the only goroutine
// driving this client.
func (c *Client) Run(ctx context.Context, interval time.Duration, apply func(Snapshot), onError func(error)) {
	report := func(err error) {
		if onError != nil {
			onError(err)
		}
	}
	base, floor, watching := c.URL+"/watch", defaultWatchFloor, true
	if c.watchFloor > 0 {
		floor = c.watchFloor
	}
	var backoff time.Duration
	for ctx.Err() == nil {
		start := time.Now()
		snap, updated, err := c.round(ctx, base)
		wait := floor
		switch {
		case updated:
			backoff = 0
			if watching {
				c.watchUpdates.Add(1)
			}
			apply(snap)
			continue
		case err == nil:
			backoff = 0
			if watching {
				c.watchTicks.Add(1)
			}
		case ctx.Err() != nil:
			return
		case watching && unsupported(err):
			c.watchFallback.Add(1)
			report(ErrWatchUnsupported)
			base, floor, watching = c.URL, interval, false
			continue
		default:
			if watching {
				c.watchDrops.Add(1)
			}
			report(err)
			backoff = min(max(2*backoff, minBackoff), maxBackoff)
			wait = max(backoff, floor)
		}
		wait = c.jitteredInterval(wait) - time.Since(start)
		if wait <= 0 {
			continue
		}
		if watching && err == nil {
			// An empty watch round should have parked server-side; one
			// this fast means the endpoint answers eagerly.
			c.watchPaced.Add(1)
		}
		if !sleepCtx(ctx, wait) {
			return
		}
	}
}

// unsupported reports whether err is a status meaning "no such
// endpoint".
func unsupported(err error) bool {
	var se *statusError
	if !errors.As(err, &se) {
		return false
	}
	switch se.code {
	case http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusNotImplemented:
		return true
	}
	return false
}

// sleepCtx sleeps for d or until ctx cancels; it reports false on
// cancellation.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
