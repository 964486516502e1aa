// Command ruidgen numbers an XML document and dumps the resulting
// identifiers, the global parameter table K, and topology statistics.
//
// Usage:
//
//	ruidgen [-scheme ruid|uid|prepost] [-area N] [-attrs] [-k] [-stats] [file.xml]
//
// With no file argument the document is read from standard input.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/dataguide"
	"repro/internal/prepost"
	"repro/internal/scheme"
	"repro/internal/uid"
	"repro/internal/xmltree"
)

func main() {
	schemeName := flag.String("scheme", "ruid", "numbering scheme: ruid, uid or prepost")
	areaBudget := flag.Int("area", core.DefaultMaxAreaNodes, "ruid: max nodes per UID-local area")
	withAttrs := flag.Bool("attrs", false, "number attribute nodes too")
	showK := flag.Bool("k", false, "ruid: print the global parameter table K")
	showStats := flag.Bool("stats", false, "print document topology statistics")
	savePath := flag.String("save", "", "ruid: write the numbering snapshot (κ, K, identifiers) to this file")
	loadPath := flag.String("load", "", "ruid: reattach a previously saved snapshot instead of rebuilding")
	showGuide := flag.Bool("guide", false, "print the DataGuide structural summary instead of identifiers")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ruidgen [flags] [file.xml]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if err := run(runConfig{
		scheme: *schemeName, area: *areaBudget, withAttrs: *withAttrs,
		showK: *showK, showStats: *showStats, showGuide: *showGuide,
		savePath: *savePath, loadPath: *loadPath,
	}, flag.Arg(0), os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ruidgen: %v\n", err)
		os.Exit(1)
	}
}

// runConfig carries the flag values.
type runConfig struct {
	scheme             string
	area               int
	withAttrs          bool
	showK, showStats   bool
	showGuide          bool
	savePath, loadPath string
}

func run(cfg runConfig, path string, out io.Writer) error {
	schemeName, areaBudget, withAttrs := cfg.scheme, cfg.area, cfg.withAttrs
	showK, showStats := cfg.showK, cfg.showStats
	var in io.Reader = os.Stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	doc, err := xmltree.Parse(in)
	if err != nil {
		return err
	}
	root := doc.DocumentElement()

	if showStats {
		fmt.Fprintln(out, xmltree.Measure(root))
	}
	if cfg.showGuide {
		g := dataguide.Build(doc)
		fmt.Fprintf(out, "dataguide: %d distinct label paths\n", g.Size())
		fmt.Fprint(out, g.String())
		return nil
	}

	var s scheme.Scheme
	var rn *core.Numbering
	switch schemeName {
	case "ruid":
		if cfg.loadPath != "" {
			f, err := os.Open(cfg.loadPath)
			if err != nil {
				return err
			}
			rn, err = core.Load(doc, f)
			f.Close()
			if err != nil {
				return err
			}
		} else {
			rn, err = core.Build(doc, core.Options{
				Partition: core.PartitionConfig{MaxAreaNodes: areaBudget, AdjustFanout: true},
				WithAttrs: withAttrs,
			})
			if err != nil {
				return err
			}
		}
		if cfg.savePath != "" {
			f, err := os.Create(cfg.savePath)
			if err != nil {
				return err
			}
			if err := rn.Save(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		s = scheme.RUID{Num: rn}
		fmt.Fprintf(out, "scheme=ruid kappa=%d areas=%d\n", rn.Kappa(), rn.AreaCount())
	case "uid":
		if cfg.loadPath != "" || cfg.savePath != "" {
			return fmt.Errorf("-save/-load require -scheme ruid")
		}
		un, err := uid.Build(doc, uid.Options{WithAttrs: withAttrs})
		if err != nil {
			return err
		}
		s = un
		fmt.Fprintf(out, "scheme=uid k=%d maxBits=%d\n", un.K(), un.Bits())
	case "prepost":
		pn, err := prepost.Build(doc)
		if err != nil {
			return err
		}
		s = pn
		fmt.Fprintf(out, "scheme=prepost nodes=%d\n", pn.Size())
	default:
		return fmt.Errorf("unknown scheme %q", schemeName)
	}

	if showK {
		if rn == nil {
			return fmt.Errorf("-k requires -scheme ruid")
		}
		fmt.Fprintln(out, "global\tlocal\tfan-out")
		for _, row := range rn.K() {
			fmt.Fprintln(out, row)
		}
	}

	var walkErr error
	root.WalkFull(func(x *xmltree.Node) bool {
		if x.Kind == xmltree.Attribute && !withAttrs {
			return true
		}
		id, ok := s.IDOf(x)
		if !ok {
			return true
		}
		label := x.Name
		switch x.Kind {
		case xmltree.Text:
			label = "#text"
		case xmltree.Comment:
			label = "#comment"
		case xmltree.Attribute:
			label = "@" + x.Name
		}
		if _, err := fmt.Fprintf(out, "%s\t%s\t%s\n", id, label, x.Path()); err != nil {
			walkErr = err
			return false
		}
		return true
	})
	return walkErr
}
