// Command fwsram evaluates the paper's SeaStar SRAM occupancy formula
// (§4.2):
//
//	M = S·Ssize + Σ Pi·Psize
//
// for a firmware configuration, and reports what fits in the chip's 384 KB
// alongside the 22 KB firmware image. The default is the paper's
// configuration: 1,024 sources and one generic process with 1,274 pendings.
//
//	fwsram
//	fwsram -sources 2048 -pendings 1274,1274,1274   # generic + two accel
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"portals3/internal/model"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fwsram", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sources := fs.Int("sources", 0, "global source structures (default: the paper's 1024)")
	pendings := fs.String("pendings", "", "comma-separated pendings per firmware-level process (default: the paper's 1274)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	p := model.Defaults()
	if *sources > 0 {
		p.NumSources = *sources
	}
	pools := []int{p.NumGenericPendings}
	if *pendings != "" {
		pools = nil
		for _, s := range strings.Split(*pendings, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 0 {
				fmt.Fprintf(stderr, "fwsram: -pendings: bad pending count %q\n", s)
				return 2
			}
			pools = append(pools, v)
		}
	}

	m := p.SRAMOccupancy(pools)
	free := p.SRAMFree(pools)
	fmt.Fprintf(stdout, "SeaStar local SRAM:        %8d bytes (384 KB, paper §2)\n", p.SRAMBytes)
	fmt.Fprintf(stdout, "firmware image:            %8d bytes (22 KB, paper §4)\n", p.FwImageBytes)
	fmt.Fprintf(stdout, "sources:                   %8d x %d B = %d bytes\n", p.NumSources, p.SourceBytes, int64(p.NumSources)*p.SourceBytes)
	for i, pi := range pools {
		kind := "generic"
		if i > 0 {
			kind = fmt.Sprintf("accel #%d", i)
		}
		fmt.Fprintf(stdout, "pendings (%-8s):       %8d x %d B = %d bytes\n", kind, pi, p.PendingBytes, int64(pi)*p.PendingBytes)
	}
	fmt.Fprintf(stdout, "M = S*Ssize + sum Pi*Psize = %d bytes\n", m)
	fmt.Fprintf(stdout, "free after image + pools:  %8d bytes\n", free)
	if free < 0 {
		fmt.Fprintln(stdout, "CONFIGURATION DOES NOT FIT")
		return 1
	}
	extra := free / (int64(p.NumGenericPendings) * p.PendingBytes)
	fmt.Fprintf(stdout, "additional %d-pending pools that still fit: %d\n", p.NumGenericPendings, extra)
	fmt.Fprintln(stdout, `(paper §4.2: "several more similarly sized pending pools can be supported")`)
	return 0
}
