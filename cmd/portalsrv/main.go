// Command portalsrv runs the simulated cybersecurity portals as real HTTP
// servers, so the crawler (psigene crawl) can be exercised over the
// network exactly as the paper's first phase describes.
//
//	portalsrv -addr 127.0.0.1:8931 -entries 40
//
// serves five portals under one listener:
//
//	/securityfocus/   HTML listing + advisory pages
//	/exploitdb/       HTML listing + advisory pages
//	/packetstorm/     HTML listing + advisory pages
//	/osvdb/           JSON search API (/osvdb/api/search)
//	/fulldisclosure/  mailing-list forum: thread index + threads
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"

	"psigene/internal/attackgen"
	"psigene/internal/faultify"
	"psigene/internal/portal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "portalsrv:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("portalsrv", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8931", "listen address")
		entries    = fs.Int("entries", 40, "advisories per portal")
		seed       = fs.Int64("seed", 1, "sample generator seed")
		faultRate  = fs.Float64("fault-rate", 0, "total injected-fault probability per request (0 disables, spread uniformly over fault classes)")
		faultSeed  = fs.Int64("fault-seed", 1, "fault schedule seed (same seed, same faults)")
		faultLives = fs.Int("fault-repeats", 2, "times an afflicted URL faults before recovering (<0: never recovers)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	mux := newMux(*entries, *seed, *faultRate, *faultSeed, *faultLives)
	if *faultRate > 0 {
		fmt.Printf("fault injection on: rate %.0f%%, seed %d, repeats %d\n", *faultRate*100, *faultSeed, *faultLives)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("portals listening on http://%s/{securityfocus,exploitdb,packetstorm,osvdb,fulldisclosure}/\n", ln.Addr())
	fmt.Printf("crawl them with:\n  psigene crawl -portals %s\n", portalList(ln.Addr().String()))
	server := &http.Server{Handler: mux}
	return server.Serve(ln)
}

// portals lists the simulated portals in mount order; a portal's index
// also derives its sample seed.
var portals = []struct {
	prefix string
	style  portal.Style
}{
	{"securityfocus", portal.StyleHTML},
	{"exploitdb", portal.StyleHTML},
	{"packetstorm", portal.StyleHTML},
	{"osvdb", portal.StyleAPI},
	{"fulldisclosure", portal.StyleForum},
}

// newMux mounts every portal under /<prefix>/, each serving entries
// advisories generated from seed. A positive faultRate wraps each portal
// in its own fault injector on the faultSeed schedule.
func newMux(entries int, seed int64, faultRate float64, faultSeed int64, faultRepeats int) *http.ServeMux {
	mux := http.NewServeMux()
	for i, n := range portals {
		gen := attackgen.NewGenerator(attackgen.CrawlProfile(), seedFor(seed, i))
		p := portal.New(n.prefix, n.style, 10, portal.GenerateEntries(gen, entries))
		h := p.Handler()
		if faultRate > 0 {
			inj := faultify.New(faultify.Config{
				Seed:    faultSeed,
				Rates:   faultify.Uniform(faultRate),
				Repeats: faultRepeats,
			})
			h = p.FaultyHandler(inj)
		}
		mux.Handle("/"+n.prefix+"/", http.StripPrefix("/"+n.prefix, h))
	}
	return mux
}

func seedFor(base int64, i int) int64 { return base + int64(i)*7 }

func portalList(addr string) string {
	out := ""
	for i, n := range portals {
		if i > 0 {
			out += ","
		}
		out += "http://" + addr + "/" + n.prefix
	}
	return out
}
