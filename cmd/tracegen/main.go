// Command tracegen writes a synthetic workload's first n instructions
// in the compact v1 trace format (IPCPTRC1), or prints them as text:
//
//	tracegen -workload mcf-994 -n 1000000 -o mcf-994.trc
//	tracegen -workload mcf-994 -n 20 -dump
//
// trace.ReadAll reads the file back as a looping stream.
package main

import (
	"flag"
	"fmt"
	"os"

	"ipcp/internal/trace"
	"ipcp/internal/workload"
)

func main() {
	var (
		name = flag.String("workload", "", "workload name (see ipcpsim -list)")
		n    = flag.Int("n", 1_000_000, "instructions to emit")
		out  = flag.String("o", "", "output trace file")
		seed = flag.Int64("seed", 1, "workload seed")
		dump = flag.Bool("dump", false, "print records as text instead of writing a file")
	)
	flag.Parse()

	w, err := workload.Named(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	stream := w.New(*seed)

	if *dump {
		var in trace.Instr
		for i := 0; i < *n && stream.Next(&in); i++ {
			fmt.Printf("%08x", in.IP)
			if in.Loads[0] != 0 {
				fmt.Printf("  LD %#x", in.Loads[0])
				if in.DepPrev {
					fmt.Print(" (dep)")
				}
			}
			if in.Stores[0] != 0 {
				fmt.Printf("  ST %#x", in.Stores[0])
			}
			if in.IsBranch {
				fmt.Printf("  BR taken=%v", in.Taken)
			}
			fmt.Println()
		}
		return
	}

	if *out == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -o or -dump required")
		os.Exit(1)
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	defer f.Close()

	tw, err := trace.NewWriter(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	var in trace.Instr
	for i := 0; i < *n && stream.Next(&in); i++ {
		if err := tw.Write(&in); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %d instructions to %s\n", tw.Count(), *out)
}
