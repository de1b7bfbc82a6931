// Command experiments regenerates the paper's evaluation: one experiment per
// figure (fig1, fig4-fig15b) plus the Section IV-F timing comparison. Each
// experiment prints the rows/series the corresponding figure plots.
//
//	experiments -exp fig8            # one experiment at full scale
//	experiments -exp all -quick      # the whole evaluation, scaled down
//	experiments -list                # available experiment IDs
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"deepbat/internal/experiments"
	"deepbat/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment ID (see -list), a comma-separated list, or 'all'")
	quick := flag.Bool("quick", false, "scaled-down lab (fast, for smoke runs)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	hours := flag.Int("hours", 0, "override lab hours")
	hourSeconds := flag.Float64("hour-seconds", 0, "override seconds per paper-hour")
	seed := flag.Int64("seed", 0, "override lab seed")
	workers := flag.Int("workers", 0, "sweep fan-out workers for cell-parallel experiments (0 = GOMAXPROCS; output is identical at any count except the wall-clock columns: fig15a time_per_sequence, ablations time_per_decision, timing)")
	metricsOut := flag.String("metrics", "", "write the merged per-cell metric snapshot (JSON) to this file")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	cfg := experiments.DefaultLabConfig()
	if *quick {
		cfg = experiments.QuickLabConfig()
	}
	if *hours > 0 {
		cfg.Hours = *hours
	}
	if *hourSeconds > 0 {
		cfg.HourSeconds = *hourSeconds
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers
	lab := experiments.NewLab(cfg)
	if *metricsOut != "" {
		lab.Obs = obs.NewRegistry()
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		rep, err := experiments.Run(lab, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Print(rep.String())
		fmt.Printf("(%s finished in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *metricsOut != "" {
		var buf bytes.Buffer
		if err := lab.Obs.WriteJSON(&buf); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*metricsOut, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}
