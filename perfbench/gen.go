package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"baywatch/internal/corpus"
	"baywatch/internal/proxylog"
	"baywatch/internal/source"
	"baywatch/internal/synthetic"
)

// Input layout under a run's directory:
//
//	logs/site-N/proxy-YYYY-MM-DD.log, logs/site-N/dhcp-leases.json
//	                    the batch input of site N (see batchSites)
//	serve/state/        daemon state preloaded with every event before the feed
//	serve/preload.log   those events as log lines (for the output check)
//	serve/feed.log      the live feed, in timestamp order
const (
	logsDir    = "logs"
	leasesFile = "dhcp-leases.json"
	serveDir   = "serve"
	stateDir   = "state"
	preloadLog = "preload.log"
	feedLog    = "feed.log"
	// preloadName and liveSource are the daemon's source names for the
	// preloaded events and the live feed.
	preloadName = "preload"
	liveSource  = "live"
	serveDays   = 8
)

// The builder adds the benign periodic services itself, with a fixed
// spread of periods, instead of letting synthetic.Generate draw one period
// per service. Those draws are few and heavy: the twelve update services'
// periods move a trace's event count by about a third from seed to seed,
// and the six niche services' periods and user counts move the long
// analyzable series that dominate detection time. With the spread fixed,
// every seed carries the same periodic load, so a metric's spread across
// seeds measures the program rather than the draw.
var (
	// updatePeriods: each is used by updateServices/len(updatePeriods)
	// popular update services, polled by half of the hosts.
	updatePeriods = []float64{900, 1800, 3600, 7200, 14400, 86400}
	// nichePeriods: one low-popularity periodic site each (live scores, web
	// radio), used by nicheUsers hosts, the paper's false-positive class.
	nichePeriods = []float64{300, 900, 1500, 1800, 2400, 3000}
)

const (
	updateServices = 12
	nicheUsers     = 2
	userAgent      = "Mozilla/5.0 (Windows NT 6.1; WOW64)"
)

// campaigns returns bwgen's injected C&C campaigns (cmd/bwgen -infections n).
func campaigns(n int) []synthetic.Infection {
	periods := []float64{30, 63, 165, 180, 387, 600, 901, 1242}
	var out []synthetic.Infection
	for i := 0; i < n; i++ {
		out = append(out, synthetic.Infection{
			Family:  fmt.Sprintf("Campaign%d", i+1),
			DGA:     corpus.DGAStyle(i%3 + 1),
			Clients: 1 + i%4,
			Period:  periods[i%len(periods)],
			Noise:   synthetic.NoiseConfig{JitterSigma: 3, MissProb: 0.05, AddProb: 0.05},
		})
	}
	return out
}

// simConfig is the synthetic.Generate configuration of each workload.
func simConfig(workload string, seed int64) (synthetic.Config, error) {
	cfg := synthetic.DefaultConfig()
	cfg.Seed = seed
	// Added by addPeriodicServices.
	cfg.UpdateServices, cfg.NicheServices = 0, 0
	switch workload {
	case "batch-week":
		// bwgen's defaults: 7 days from Sunday 2015-03-01, 200 hosts,
		// 5 campaigns.
		cfg.Infections = campaigns(5)
	case "batch-wide-day":
		// One weekday (Monday 2015-03-02), a wide population browsing
		// heavily, one campaign and no niche periodic services.
		cfg.Start = synthetic.Midnight(2015, time.March, 2)
		cfg.Days = 1
		cfg.Hosts = 3000
		cfg.CatalogSize = 6000
		cfg.BrowsingSessionsPerHostDay = 21
		cfg.Infections = campaigns(1)
	case "serve-live":
		// Eight days from Tuesday 2015-03-03, so day 8 is a weekday.
		cfg.Start = synthetic.Midnight(2015, time.March, 3)
		cfg.Days = serveDays
		cfg.Infections = campaigns(5)
	default:
		return cfg, fmt.Errorf("unknown workload %q", workload)
	}
	return cfg, nil
}

// batchSites is how many independent sites a batch workload's metric
// run processes, each its own trace from its own seed, one batch run
// after another. A week's detection time is mostly the few longest series
// (the slowest 1% of pairs take over 80% of it), and how fast their
// spectra are depends on the analysis lengths the seed happens to give
// them: one site's throughput moved by a quarter from seed to seed.
// Several sites per run average that draw out. Traced runs use site 0.
var batchSites = map[string]int{"batch-week": 4, "batch-wide-day": 1}

// siteSeed is the generation seed of site i of a run with seed seed;
// site 0 uses the run's seed.
func siteSeed(seed int64, i int) int64 { return seed + int64(i)<<32 }

// siteDir is where site i's batch inputs live.
func siteDir(dir string, i int) string {
	return filepath.Join(dir, logsDir, fmt.Sprintf("site-%d", i))
}

// siteDirs lists the sites whose batch inputs were generated under dir.
func siteDirs(dir string) ([]string, error) {
	sites, err := filepath.Glob(filepath.Join(dir, logsDir, "site-*"))
	if err != nil {
		return nil, err
	}
	if len(sites) == 0 {
		return nil, fmt.Errorf("no batch inputs under %s", dir)
	}
	sort.Strings(sites)
	return sites, nil
}

// generate builds a run's inputs under dir from the seed: the batch logs
// when the run needs them (every site of a batch metric run, site 0 of a
// traced run) and the daemon's preloaded state plus feed when it runs the
// daemon (serve-live and traced runs). feedLines is how many feed lines
// the load sends; a batch workload's feed is its last feedLines events.
func generate(o options, feedLines int) error {
	sites := 1
	if !o.trace {
		sites = max(1, batchSites[o.workload])
	}
	for i := 0; i < sites; i++ {
		cfg, err := simConfig(o.workload, siteSeed(o.seed, i))
		if err != nil {
			return err
		}
		tr, err := synthetic.Generate(cfg)
		if err != nil {
			return fmt.Errorf("generate: %w", err)
		}
		niche := len(nichePeriods)
		if o.workload == "batch-wide-day" {
			niche = 0
		}
		addPeriodicServices(cfg, tr, niche, rand.New(rand.NewSource(cfg.Seed)))
		if o.workload != "serve-live" || o.trace {
			if err := writeBatchInputs(siteDir(o.dir, i), cfg, tr); err != nil {
				return err
			}
		}
		if i == 0 && serves(o) {
			if err := generateServe(o, cfg, tr, feedLines); err != nil {
				return err
			}
		}
	}
	return nil
}

// generateServe splits the trace into the daemon's preload and its feed:
// serve-live's feed is day 8, a batch workload's its last feedLines
// events.
func generateServe(o options, cfg synthetic.Config, tr *synthetic.Trace, feedLines int) error {
	cut := len(tr.Records) - feedLines
	if o.workload == "serve-live" {
		day8 := cfg.Start + int64(serveDays-1)*86400
		cut = sort.Search(len(tr.Records), func(i int) bool { return tr.Records[i].Timestamp >= day8 })
	}
	if cut <= 0 || len(tr.Records)-cut < feedLines {
		return fmt.Errorf("trace has %d events; the feed needs %d after the preload", len(tr.Records), feedLines)
	}
	return writeServeInputs(filepath.Join(o.dir, serveDir), tr.Records[:cut], tr.Records[cut:])
}

// addPeriodicServices adds the benign periodic services the way
// synthetic.Generate builds them, with fixed periods: the update services
// (catalog entries 10-21, each polled by the first half of the hosts with
// 1% jitter and 2% missed polls) and the first niche sites
// (the catalog's tail, each visited by nicheUsers random hosts with 2%
// jitter and 10% missed visits). On weekends only weekend-present hosts
// take part.
func addPeriodicServices(cfg synthetic.Config, tr *synthetic.Trace, niche int, rng *rand.Rand) {
	leases := map[string][]proxylog.Lease{}
	for _, l := range tr.Leases {
		leases[l.MAC] = append(leases[l.MAC], l)
	}
	ipAt := func(mac string, ts int64) string {
		ls := leases[mac]
		for _, l := range ls {
			if ts >= l.Start && ts < l.End {
				return l.IP
			}
		}
		return ls[len(ls)-1].IP
	}
	stride := int(1/cfg.WeekendFactor + 0.5)
	end := cfg.Start + int64(cfg.Days)*86400
	var recs []*proxylog.Record
	beacon := func(h int, period float64, noise synthetic.NoiseConfig, record func(t int64, ip string) *proxylog.Record) {
		start := cfg.Start + int64(rng.Float64()*period)
		n := max(2, int(float64(cfg.Days)*86400/period))
		for _, t := range synthetic.BeaconTimestamps(rng, start, period, n, noise) {
			if t >= end {
				break
			}
			if wd := time.Unix(t, 0).UTC().Weekday(); (wd == time.Saturday || wd == time.Sunday) && h%stride != 0 {
				continue
			}
			recs = append(recs, record(t, ipAt(tr.Hosts[h], t)))
		}
	}
	for j := 0; j < updateServices; j++ {
		svc := tr.Catalog[10+j]
		period := updatePeriods[j%len(updatePeriods)]
		path := corpus.BenignBeaconPaths[rng.Intn(len(corpus.BenignBeaconPaths))]
		for h := 0; h < cfg.Hosts/2; h++ {
			beacon(h, period, synthetic.NoiseConfig{JitterSigma: period * 0.01, MissProb: 0.02}, func(t int64, ip string) *proxylog.Record {
				return &proxylog.Record{Timestamp: t, ClientIP: ip, Method: "GET", Scheme: "http", Host: svc, Path: path,
					Status: 200, BytesOut: 200 + rng.Intn(400), BytesIn: 150 + rng.Intn(200), UserAgent: userAgent}
			})
		}
	}
	paths := []string{"/", "/live", "/scores", "/stream/status"}
	for j := 0; j < niche; j++ {
		site := tr.Catalog[len(tr.Catalog)-1-j]
		period := nichePeriods[j%len(nichePeriods)]
		for u := 0; u < nicheUsers; u++ {
			beacon(rng.Intn(cfg.Hosts), period, synthetic.NoiseConfig{JitterSigma: period * 0.02, MissProb: 0.1}, func(t int64, ip string) *proxylog.Record {
				return &proxylog.Record{Timestamp: t, ClientIP: ip, Method: "GET", Scheme: "https",
					Host: corpus.Subdomain(rng, site, 0.3), Path: paths[rng.Intn(len(paths))],
					Status: 200, BytesOut: 500 + rng.Intn(50000), BytesIn: 200 + rng.Intn(800), UserAgent: userAgent}
			})
		}
	}
	tr.Records = append(tr.Records, recs...)
	sort.SliceStable(tr.Records, func(i, j int) bool { return tr.Records[i].Timestamp < tr.Records[j].Timestamp })
}

// writeBatchInputs writes one plain-text log per simulated day and the
// DHCP leases, the layout cmd/baywatch -logs reads.
func writeBatchInputs(dir string, cfg synthetic.Config, tr *synthetic.Trace) error {
	writers := map[int]*proxylog.Writer{}
	closeAll := func() error {
		var first error
		for day, w := range writers {
			if err := w.Close(); err != nil && first == nil {
				first = err
			}
			delete(writers, day)
		}
		return first
	}
	for _, r := range tr.Records {
		day := int((r.Timestamp - cfg.Start) / 86400)
		w, ok := writers[day]
		if !ok {
			date := time.Unix(cfg.Start+int64(day)*86400, 0).UTC().Format("2006-01-02")
			var err error
			if w, err = proxylog.NewWriter(filepath.Join(dir, "proxy-"+date+".log")); err != nil {
				closeAll()
				return err
			}
			writers[day] = w
		}
		if err := w.Write(r); err != nil {
			closeAll()
			return err
		}
	}
	if err := closeAll(); err != nil {
		return err
	}
	data, err := json.Marshal(tr.Leases)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, leasesFile), data, 0o644)
}

// writeServeInputs writes the preload and the feed as log files and
// commits the preload into a daemon state directory.
func writeServeInputs(dir string, preload, feed []*proxylog.Record) error {
	events := make([]source.Event, len(preload))
	for i, r := range preload {
		// The mapping the daemon's line parser applies: no DHCP
		// correlation in serve mode, the client IP is the source.
		events[i] = source.Event{Source: r.ClientIP, Destination: r.Host, TS: r.Timestamp, Path: r.Path}
	}
	if err := writeRecords(filepath.Join(dir, preloadLog), preload); err != nil {
		return err
	}
	if err := writeRecords(filepath.Join(dir, feedLog), feed); err != nil {
		return err
	}
	eng, err := source.OpenEngine(source.Config{StateDir: filepath.Join(dir, stateDir)})
	if err != nil {
		return err
	}
	eng.Apply(source.Batch{Source: preloadName, Events: events, Pos: source.Position{Records: int64(len(events))}})
	return eng.Commit()
}

func writeRecords(path string, recs []*proxylog.Record) error {
	w, err := proxylog.NewWriter(path)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}
