package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"time"
)

// The sandbox this benchmark runs in shares its physical cores with other
// tenants. A probe (README.md, "Why times are scaled") showed the same
// request taking 22 ms or 35 ms depending on the minute, in two modes that
// flip every few seconds to minutes, while a dependent-chain ALU loop did
// not move at all: the signature of a busy sibling hyperthread. No run
// length a benchmark can afford averages that out, and the clock as read
// spreads by 13-32 % between runs of the same code, more than any bound the
// contract admits. So the bench measures the host: a fixed reference kernel,
// standard-library code only, runs between rounds in a process of its own,
// and every round's latency is divided by the reference samples taken right
// before and after it. Times are reported in milliseconds at reference
// speed: what the clock would have read had the kernel taken refNominalMS.
//
// The kernel runs in a child process because it allocates: in the server's
// own heap it would slow down whenever the server's collector is marking,
// and a change to the server's allocation rate would then move the divisor
// and hide part of its own effect. The child has a heap and a collector of
// its own, a few megabytes that never grow.

// refNominalMS is the unit of reference speed: about what one sample takes
// on this class of host when its neighbours are quiet. It only fixes the
// scale the times are printed in; every gate compares two runs that share
// it.
const refNominalMS = 0.25

// refChildEnv, when set, turns the process into the reference child. An
// environment variable and not a flag, so that the test binary can serve as
// the child too.
const refChildEnv = "BENCH_REFERENCE_CHILD"

// refDoc is the kernel's input: a JSON document of a few kilobytes.
func refDoc() []byte {
	items := make([]map[string]any, 60)
	for i := range items {
		items[i] = map[string]any{
			"id":     i,
			"name":   fmt.Sprintf("item %d", i*7919%1000),
			"tags":   []string{"a", "bb", "ccc"},
			"price":  float64(i*104729%10000) / 100,
			"nested": map[string]any{"x": i, "y": "z"},
		}
	}
	doc, err := json.Marshal(map[string]any{"items": items})
	if err != nil {
		panic(err) // maps of strings and numbers always encode
	}
	return doc
}

// refKernel decodes doc into generic maps and encodes it again. Like the
// server's request path it allocates, hashes, branches and chases pointers,
// and in the probe it slowed down with the workloads where sort, ALU,
// memory-latency and non-allocating JSON scanning loops did not.
func refKernel(doc []byte) time.Duration {
	t0 := time.Now()
	var v map[string]any
	if err := json.Unmarshal(doc, &v); err != nil {
		panic(err) // the document was produced by json.Marshal
	}
	if _, err := json.Marshal(v); err != nil {
		panic(err)
	}
	return time.Since(t0)
}

// refChildMain is the child: for every byte it reads it runs the kernel
// once and writes back how long that took, in nanoseconds. It ends when its
// standard input is closed.
func refChildMain() {
	doc := refDoc()
	in, buf := bufio.NewReader(os.Stdin), make([]byte, 8)
	for {
		if _, err := in.ReadByte(); err != nil {
			return
		}
		binary.LittleEndian.PutUint64(buf, uint64(refKernel(doc)))
		if _, err := os.Stdout.Write(buf); err != nil {
			return
		}
	}
}

// reference is the parent's handle on the child and the log of every
// sample taken, by the time it was taken.
type reference struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out io.Reader
	err error // the first failure talking to the child; fails the run

	at []time.Time // when each sample's answer arrived, ascending
	ms []float64   // what the sample took
}

func startReference() (*reference, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), refChildEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &reference{cmd: cmd, in: in, out: out}, nil
}

// stop ends the child, waits for it, and returns the first error the
// reference met.
func (ref *reference) stop() error {
	if err := ref.in.Close(); err != nil && ref.err == nil {
		ref.err = err
	}
	if err := ref.cmd.Wait(); err != nil && ref.err == nil {
		ref.err = err
	}
	return ref.err
}

// sample asks the child for n runs of the kernel. Only the client
// goroutine calls it.
func (ref *reference) sample(n int) {
	var buf [8]byte
	for i := 0; i < n && ref.err == nil; i++ {
		if _, err := ref.in.Write(buf[:1]); err != nil {
			ref.err = fmt.Errorf("reference child: %w", err)
			return
		}
		if _, err := io.ReadFull(ref.out, buf[:]); err != nil {
			ref.err = fmt.Errorf("reference child: %w", err)
			return
		}
		ref.at = append(ref.at, time.Now())
		ref.ms = append(ref.ms, ms(time.Duration(binary.LittleEndian.Uint64(buf[:]))))
	}
}

// factor is what turns a duration measured between start and end into
// reference speed: refNominalMS over the mean of the n samples taken last
// before start and the n taken first after end (their medians, for n > 1).
// It is read once the sampling is over, so any goroutine's intervals can be
// scaled by the client's samples.
func (ref *reference) factor(start, end time.Time, n int) float64 {
	before := sort.Search(len(ref.at), func(i int) bool { return ref.at[i].After(start) })
	after := sort.Search(len(ref.at), func(i int) bool { return !ref.at[i].Before(end) })
	var sides []float64
	if lo := max(0, before-n); lo < before {
		sides = append(sides, median(ref.ms[lo:before]))
	}
	if hi := min(len(ref.ms), after+n); after < hi {
		sides = append(sides, median(ref.ms[after:hi]))
	}
	if len(sides) == 0 {
		return 1 // no sample was ever taken: the child failed, and so will the run
	}
	return refNominalMS / mean(sides)
}

// slowdown is how much slower than nominal the kernel has run so far, by
// the median of every sample taken: about 1 on a quiet host.
func (ref *reference) slowdown() float64 { return median(ref.ms) / refNominalMS }
