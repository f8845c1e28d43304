// Command psigened is the pSigene serving daemon: a reverse proxy that
// scores every request against a trained signature set before forwarding
// it to the protected upstream.
//
//	psigened -model models/v1 -upstream http://127.0.0.1:8080 -listen :9090
//
// The admin control surface is served on its own listener (-admin-listen,
// loopback-only by default; "" disables it) so public proxied traffic can
// never reach it and no upstream route is shadowed. -admin-token adds
// bearer-token auth on top. Admin endpoints bypass admission control:
//
//	GET  /-/healthz            liveness
//	GET  /-/readyz             readiness (503 while draining)
//	GET  /-/statz              counters, breaker state, scoring latency,
//	                           serving artifact version + content hash
//	GET  /-/metrics            the same, in Prometheus text format
//	POST /-/reload?path=v2     validate-then-swap a model named inside
//	                           -model-dir (default: the -model directory);
//	                           a corrupt model leaves the old one serving
//	POST /-/canary/start?path= score a candidate side-by-side on sampled
//	                           traffic without affecting verdicts
//	GET  /-/canary             verdict-delta report for the active canary
//	POST /-/canary/promote     swap the candidate in; /-/canary/abort drops it
//
// -model and every ?path= name a versioned artifact directory
// (manifest.json + model.json, as psigene train writes it); each is
// hash-verified before it serves, and its identity is echoed on
// X-Psigene-Gen and /-/statz.
//
// On SIGINT/SIGTERM the daemon stops admitting requests, drains in-flight
// ones (bounded by -drain-timeout), and exits.
package main

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"psigene/internal/admission"
	"psigene/internal/core"
	"psigene/internal/fleet"
	"psigene/internal/gateway"
)

// randomSeed draws the admission seed from the OS entropy source. The
// seed feeds caller-shard placement and penalty jitter; a predictable
// production seed would let an attacker precompute keys that collide into
// one shard and evict a victim's limiter state. Tests that need
// reproducible decisions inject their own seed via admission.Config.
func randomSeed() (int64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("seed admission hashing: %w", err)
	}
	return int64(binary.LittleEndian.Uint64(b[:])), nil
}

// parseCIDRList parses a comma-separated list of CIDRs or bare addresses.
func parseCIDRList(s string) ([]netip.Prefix, error) {
	var out []netip.Prefix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.ContainsRune(part, '/') {
			ip, err := netip.ParseAddr(part)
			if err != nil {
				return nil, fmt.Errorf("bad address %q: %w", part, err)
			}
			ip = ip.Unmap()
			out = append(out, netip.PrefixFrom(ip, ip.BitLen()))
			continue
		}
		p, err := netip.ParsePrefix(part)
		if err != nil {
			return nil, fmt.Errorf("bad CIDR %q: %w", part, err)
		}
		out = append(out, p)
	}
	return out, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "psigened:", err)
		os.Exit(1)
	}
}

// testHooks lets the tests drive the daemon: ready receives the bound
// data-path address once listening, adminReady the admin address, and
// stop triggers the drain path a signal would.
type testHooks struct {
	ready      chan string
	adminReady chan string
	stop       chan struct{}
}

// run wires flags into a gateway.Gateway and serves until a signal (or
// the test stop hook) triggers the drain.
func run(args []string, w io.Writer, hooks *testHooks) error {
	fs := flag.NewFlagSet("psigened", flag.ContinueOnError)
	var (
		model        = fs.String("model", "", "trained model artifact directory (psigene train output); required")
		upstream     = fs.String("upstream", "", "base URL of the protected upstream; required")
		listen       = fs.String("listen", ":9090", "address to serve on")
		adminListen  = fs.String("admin-listen", "127.0.0.1:9091", "address for the /-/ admin surface (loopback by default; empty disables it)")
		adminToken   = fs.String("admin-token", "", "bearer token required on admin requests (empty: rely on the listener being private)")
		modelDir     = fs.String("model-dir", "", "directory /-/reload artifact names resolve in (default: the parent of -model)")
		policy       = fs.String("policy", "open", "scoring-failure policy: open (forward unscored) or closed (reject)")
		maxInFlight  = fs.Int("max-in-flight", 256, "concurrent request cap; excess is shed with 503")
		maxBody      = fs.Int64("max-body-bytes", 1<<20, "request body cap in bytes")
		scoreBudget  = fs.Duration("score-budget", 10*time.Millisecond, "deadline slice reserved for scoring")
		upTimeout    = fs.Duration("upstream-timeout", 5*time.Second, "deadline slice for the upstream leg")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")

		// Fleet mode (see internal/fleet): N in-process gateway replicas
		// behind a consistent-hash front with per-replica health,
		// failover, and coordinated two-phase model reloads.
		fleetN = fs.Int("fleet", 1, "number of in-process gateway replicas; >1 serves through the fleet front (caller-affine routing, ejection/failover, coordinated reloads)")

		// Per-client abuse control (see internal/admission). Admission is
		// enabled when any tier limit or a denylist is configured.
		qps          = fs.Int("qps", 0, "per-caller requests per second; 0 disables the tier")
		qpm          = fs.Int("qpm", 0, "per-caller requests per minute; 0 disables the tier")
		qpd          = fs.Int("qpd", 0, "per-caller requests per day; 0 disables the tier")
		qpsStrikes   = fs.Int("qps-strikes", 0, "qps-tier rejections before the penalty box; 0 keeps the shared default of 3")
		qpmStrikes   = fs.Int("qpm-strikes", 0, "qpm-tier rejections before the penalty box; 0 keeps the shared default of 3")
		qpdStrikes   = fs.Int("qpd-strikes", 0, "qpd-tier rejections before the penalty box; 0 keeps the shared default of 3")
		blockSecs    = fs.Int("block-seconds", 10, "base penalty-box duration for repeat limit abusers; escalates per strike")
		maxBlockSecs = fs.Int("max-block-seconds", 3600, "cap on the escalating penalty-box duration")
		maxCallers   = fs.Int("max-callers", 1<<16, "bound on tracked caller limiter states (LRU-evicted beyond it)")
		keyHeader    = fs.String("client-key-header", "", "request header naming the caller (e.g. an API key validated upstream); empty keys callers by IP")
		keyCookie    = fs.String("client-key-cookie", "", "cookie naming the caller when the key header is absent")
		trustedProxy = fs.String("trusted-proxies", "", "comma-separated CIDRs of proxies allowed to assert X-Forwarded-For; empty trusts no one")
		denylistPath = fs.String("denylist", "", "file of denied IPs/CIDRs (one per line, # comments) answered with 403")
		denyDir      = fs.String("deny-dir", "", "directory /-/denylist/reload names resolve in (default: the -denylist directory)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *model == "" || *upstream == "" {
		return fmt.Errorf("both -model and -upstream are required")
	}
	var pol gateway.Policy
	switch *policy {
	case "open":
		pol = gateway.FailOpen
	case "closed":
		pol = gateway.FailClosed
	default:
		return fmt.Errorf("unknown -policy %q (want open or closed)", *policy)
	}

	if *fleetN < 1 {
		return fmt.Errorf("-fleet must be at least 1 replica")
	}

	m, man, err := core.LoadArtifact(*model)
	if err != nil {
		return fmt.Errorf("load model: %w", err)
	}

	// Per-client admission control: built only when a tier or denylist is
	// configured, so the zero-flag deployment keeps the pre-admission
	// data path byte for byte. In fleet mode each replica gets its own
	// controller — the front's caller-affine routing keeps any one
	// caller's limiter state on one replica, so per-replica controllers
	// behave like the single-instance one without shared locks.
	admissionOn := *qps > 0 || *qpm > 0 || *qpd > 0 || *denylistPath != ""
	var trusted, denied *admission.CIDRSet
	var admissionSeed int64
	if admissionOn {
		if *trustedProxy != "" {
			prefixes, err := parseCIDRList(*trustedProxy)
			if err != nil {
				return fmt.Errorf("-trusted-proxies: %w", err)
			}
			if trusted, err = admission.BuildCIDRSet(prefixes); err != nil {
				return fmt.Errorf("-trusted-proxies: %w", err)
			}
		}
		if *denylistPath != "" {
			if denied, err = admission.LoadDenylistFile(*denylistPath); err != nil {
				return fmt.Errorf("-denylist: %w", err)
			}
		}
		if admissionSeed, err = randomSeed(); err != nil {
			return err
		}
	}
	newController := func() (*admission.Controller, error) {
		if !admissionOn {
			return nil, nil
		}
		ctrl := admission.New(admission.Config{
			QPS: *qps, QPM: *qpm, QPD: *qpd,
			QPSStrikes:      *qpsStrikes,
			QPMStrikes:      *qpmStrikes,
			QPDStrikes:      *qpdStrikes,
			BlockSeconds:    *blockSecs,
			MaxBlockSeconds: *maxBlockSecs,
			MaxCallers:      *maxCallers,
			Seed:            admissionSeed,
			Identity: admission.Identity{
				Header:         *keyHeader,
				Cookie:         *keyCookie,
				TrustedProxies: trusted,
			},
		})
		// Installed via SetDenylist, not Config.Denylist, so a probe
		// rejection is a hard startup error instead of New's counted drop:
		// an operator who configured a denylist never serves without one.
		if denied != nil {
			if err := ctrl.SetDenylist(denied); err != nil {
				return nil, fmt.Errorf("-denylist: %w", err)
			}
		}
		return ctrl, nil
	}

	replicas := make([]*gateway.Gateway, *fleetN)
	var firstCtrl *admission.Controller
	for i := range replicas {
		ctrl, err := newController()
		if err != nil {
			return err
		}
		if i == 0 {
			firstCtrl = ctrl
		}
		replicas[i], err = gateway.New(*upstream, m, gateway.Options{
			MaxInFlight:     *maxInFlight,
			MaxBodyBytes:    *maxBody,
			ScoreBudget:     *scoreBudget,
			UpstreamTimeout: *upTimeout,
			Policy:          pol,
			ModelVersion:    man.Version,
			ModelSHA256:     man.ModelSHA256,
			Admission:       ctrl,
		})
		if err != nil {
			return err
		}
	}
	g := replicas[0]
	if firstCtrl != nil {
		set, _ := firstCtrl.Denylist()
		fmt.Fprintf(w, "psigened: per-client admission on (qps=%d qpm=%d qpd=%d, denylist %d entries)\n",
			*qps, *qpm, *qpd, set.Len())
	}

	// Fleet mode wraps the replicas in the consistent-hash front; the
	// single-replica deployment serves the gateway directly, byte for
	// byte what it was before fleet mode existed. When admission keys
	// callers by a header, the ring routes by the same header so caller
	// affinity and admission identity agree.
	var handler http.Handler = g
	drain := g.Drain
	var front *fleet.Front
	if *fleetN > 1 {
		fleetSeed, err := randomSeed()
		if err != nil {
			return err
		}
		opts := fleet.Options{Seed: fleetSeed}
		if *keyHeader != "" {
			opts.KeyFunc = fleet.HeaderKey(*keyHeader)
		}
		if front, err = fleet.New(replicas, opts); err != nil {
			return err
		}
		handler = front
		drain = front.Drain
		fmt.Fprintf(w, "psigened: fleet mode: %d replicas behind the consistent-hash front\n", *fleetN)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "psigened: scoring with %s (%d signatures, policy %s), proxying to %s on %s\n",
		m.Name(), len(m.Signatures), pol, *upstream, ln.Addr())
	if hooks != nil && hooks.ready != nil {
		hooks.ready <- ln.Addr().String()
	}

	srv := &http.Server{Handler: handler}
	errCh := make(chan error, 2)
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	// The admin surface gets its own listener so the public data path can
	// never reach reload/statz and /-/ stays usable by the upstream.
	var adminSrv *http.Server
	if *adminListen != "" {
		dir := *modelDir
		if dir == "" {
			// Clean first: Dir of "models/v1/" is "models/v1" itself.
			dir = filepath.Dir(filepath.Clean(*model))
		}
		adminLn, err := net.Listen("tcp", *adminListen)
		if err != nil {
			_ = ln.Close()
			return fmt.Errorf("admin listen: %w", err)
		}
		fmt.Fprintf(w, "psigened: admin surface on %s (models reload from %s)\n", adminLn.Addr(), dir)
		if hooks != nil && hooks.adminReady != nil {
			hooks.adminReady <- adminLn.Addr().String()
		}
		dd := *denyDir
		if dd == "" && *denylistPath != "" {
			dd = filepath.Dir(*denylistPath)
		}
		// In fleet mode the admin surface is the front's: statz and
		// metrics aggregate every replica, and reload is the two-phase
		// all-or-nothing fanout instead of a single gateway's swap.
		var adminHandler http.Handler
		if front != nil {
			adminHandler = front.Admin(fleet.AdminConfig{
				Token:    *adminToken,
				ModelDir: dir,
				Log:      w,
			})
		} else {
			adminHandler = g.Admin(gateway.AdminConfig{
				Token:    *adminToken,
				ModelDir: dir,
				DenyDir:  dd,
				Log:      w,
			})
		}
		adminSrv = &http.Server{Handler: adminHandler}
		go func() {
			if err := adminSrv.Serve(adminLn); !errors.Is(err, http.ErrServerClosed) {
				errCh <- err
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	var testStop chan struct{}
	if hooks != nil {
		testStop = hooks.stop
	}
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Fprintf(w, "psigened: %v: draining\n", s)
	case <-testStop:
		fmt.Fprintln(w, "psigened: stop requested: draining")
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := drain(ctx); err != nil {
		fmt.Fprintf(w, "psigened: drain incomplete: %v\n", err)
	}
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("shutdown: %w", err)
	}
	if adminSrv != nil {
		if err := adminSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("admin shutdown: %w", err)
		}
	}
	fmt.Fprintln(w, "psigened: drained, bye")
	return nil
}
