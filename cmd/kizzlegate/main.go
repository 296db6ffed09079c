// Command kizzlegate runs the scanning reverse proxy (the paper's
// browser/CDN deployment channel): it fronts an upstream web server,
// scans HTML/JavaScript responses against the deployed Kizzle signature
// set, and blocks exploit-kit landings. Signatures come from a local
// sigdb file and/or are kept current from a signature server by
// sigdb.Client.Run: one loop of long-poll rounds on the server-push
// watch stream (a publish reaches every replica in ~1 RTT), which
// becomes jittered conditional polling at -poll against a server without
// the watch endpoint. Updates travel as per-family deltas, so a one-kit
// update moves and recompiles one kit. Each response is decided as it
// arrives; identical responses in flight at the same moment share one
// scan, and with -verdicts replicas also share scan verdicts through a
// fleet cache so a hot document is scanned once fleet-wide.
//
// Usage:
//
//	kizzlegate -listen :8080 -upstream http://origin:80 \
//	           [-sigfile sigs.json] [-sigurl http://sigserver/signatures] \
//	           [-poll 1m] [-jitter 0.1] \
//	           [-verdicts http://sigserver/verdicts] [-verdictkey SECRET] \
//	           [-metricslisten :8081]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"time"

	"kizzle/gateway"
	"kizzle/internal/servemetrics"
	"kizzle/internal/verdictcache"
	"kizzle/sigdb"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "kizzlegate:", err)
		os.Exit(1)
	}
}

// run configures the gate. When ready is non-nil, the configured proxy
// handler is sent to it instead of binding a listener, followed by the
// /metrics handler when -metricslisten is set (test hook).
func run(args []string, ready chan<- http.Handler) error {
	fs := flag.NewFlagSet("kizzlegate", flag.ContinueOnError)
	listen := fs.String("listen", ":8080", "address to serve on")
	upstream := fs.String("upstream", "", "origin URL to proxy (required)")
	sigfile := fs.String("sigfile", "", "local sigdb JSON file to load")
	sigurl := fs.String("sigurl", "", "signature server URL to poll for updates")
	poll := fs.Duration("poll", time.Minute, "signature poll interval against a server without the watch endpoint")
	jitter := fs.Float64("jitter", 0.1, "update-loop jitter fraction (±), spreads replica requests")
	verdictsURL := fs.String("verdicts", "", "shared verdict cache URL (e.g. http://sigserver/verdicts); empty disables fleet verdict sharing")
	verdictKey := fs.String("verdictkey", "", "HMAC key for signing shared verdict publishes (the publisher's -verdictkey)")
	metricsListen := fs.String("metricslisten", "", "admin address to serve /metrics on (empty disables)")
	strict := fs.Bool("strict", false, "refuse uncertified signature updates: every fetched set must carry a verifiable attestation")
	certKey := fs.String("certkey", "", "HMAC key for verifying attestation signatures (share with the publisher)")
	attestURL := fs.String("attesturl", "", "attestation endpoint (default: -sigurl with its path replaced by /attest)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *upstream == "" {
		return fmt.Errorf("-upstream is required")
	}
	if *sigfile == "" && *sigurl == "" {
		return fmt.Errorf("one of -sigfile or -sigurl is required")
	}
	if (*strict || *certKey != "" || *attestURL != "") && *sigurl == "" {
		return fmt.Errorf("-strict/-certkey/-attesturl require -sigurl")
	}
	if !*strict && (*certKey != "" || *attestURL != "") {
		return fmt.Errorf("-certkey/-attesturl require -strict")
	}
	if *verdictKey != "" && *verdictsURL == "" {
		return fmt.Errorf("-verdictkey requires -verdicts")
	}
	target, err := url.Parse(*upstream)
	if err != nil || target.Scheme == "" {
		return fmt.Errorf("bad -upstream %q", *upstream)
	}

	vetter := gateway.NewVetter(nil)
	if *sigfile != "" {
		store, err := sigdb.Open(*sigfile)
		if err != nil {
			return err
		}
		snap := store.Snapshot()
		m, _, err := snap.Matcher()
		if err != nil {
			return err
		}
		vetter.Update(m)
		vetter.SetVersion(snap.Version)
		log.Printf("loaded signature set v%d from %s", snap.Version, *sigfile)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pollDone := make(chan struct{})
	var client *sigdb.Client
	if *sigurl != "" {
		client = &sigdb.Client{URL: *sigurl, Jitter: *jitter}
		if *strict {
			// Certified serving: a fetched set without a matching, (when
			// keyed) signed attestation never deploys — the gate keeps
			// serving the last attested version and logs each rejection.
			client.Strict = true
			client.CertKey = []byte(*certKey)
			client.AttestURL = *attestURL
			if client.AttestURL == "" {
				u, err := url.Parse(*sigurl)
				if err != nil {
					return fmt.Errorf("bad -sigurl %q: %v", *sigurl, err)
				}
				u.Path = "/attest"
				u.RawQuery = ""
				client.AttestURL = u.String()
			}
			log.Printf("strict mode: requiring attestations from %s", client.AttestURL)
		}
		deploy := func(snap sigdb.Snapshot) {
			// The client compiled the set to validate it (incrementally,
			// per changed family); deploy that compilation rather than
			// paying for a second one.
			m, _ := client.Matcher()
			if m == nil {
				var err error
				if m, _, err = snap.Matcher(); err != nil {
					log.Printf("rejecting signature update v%d: %v", snap.Version, err)
					return
				}
			}
			vetter.Update(m)
			vetter.SetVersion(snap.Version)
			log.Printf("deployed signature set v%d (%d signatures)", snap.Version, len(snap.Signatures))
		}
		// Arm the gate before serving: fetch once synchronously so a
		// replica never admits traffic with an empty signature set while
		// the update loop starts. Run's first watch round then parks until
		// the next publish.
		if snap, updated, err := client.Fetch(ctx); err != nil {
			log.Printf("initial signature fetch: %v", err)
		} else if updated {
			deploy(snap)
		}
		go func() {
			defer close(pollDone)
			client.Run(ctx, *poll, deploy, func(err error) { log.Printf("signature update: %v", err) })
		}()
	} else {
		close(pollDone)
	}

	proxy := gateway.NewProxy(target, vetter)
	admit := gateway.NewAdmitter(vetter, 0, 0)
	var verdicts *verdictcache.HTTPStore
	if *verdictsURL != "" {
		verdicts = &verdictcache.HTTPStore{URL: *verdictsURL, Key: []byte(*verdictKey)}
		admit.UseSharedStore(verdicts)
		log.Printf("sharing verdicts through %s", *verdictsURL)
	}
	proxy.UseAdmitter(admit)

	metrics := servemetrics.Handler(func() map[string]any {
		out := map[string]any{
			"vetter":   vetter.Metrics(),
			"admitter": admit.Metrics(),
			"proxy":    proxy.Metrics(),
			"runtime":  servemetrics.RuntimeStats(),
		}
		if client != nil {
			out["sigclient"] = client.Metrics()
		}
		if verdicts != nil {
			out["verdict_store"] = verdicts.Metrics()
		}
		return out
	})

	if ready != nil {
		ready <- proxy
		if *metricsListen != "" {
			ready <- metrics
		}
		cancel()
		<-pollDone
		return nil
	}
	if *metricsListen != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics)
		go func() {
			log.Printf("kizzlegate metrics on %s/metrics", *metricsListen)
			if err := http.ListenAndServe(*metricsListen, mux); err != nil {
				log.Printf("metrics listener: %v", err)
			}
		}()
	}
	log.Printf("kizzlegate proxying %s on %s", target, *listen)
	err = http.ListenAndServe(*listen, proxy)
	cancel()
	<-pollDone
	return err
}
