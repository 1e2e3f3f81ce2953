package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var profileSink []*[64]byte

//go:noinline
func allocateForProfile(sink []*[64]byte) {
	for i := range sink {
		sink[i] = new([64]byte)
	}
}

// TestParseAllocsProfile reads this process's own allocation profile
// and finds a known allocation site with its exact count.
func TestParseAllocsProfile(t *testing.T) {
	profileSink = make([]*[64]byte, 1000)
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	allocateForProfile(profileSink)
	runtime.MemProfileRate = rate
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(p.sampleTypes, ","); got != "alloc_objects,alloc_space,inuse_objects,inuse_space" {
		t.Fatalf("sample types %s", got)
	}
	idx, err := p.valueIndex("alloc_objects")
	if err != nil {
		t.Fatal(err)
	}
	var objects int64
	for _, s := range p.samples {
		for _, f := range s.stack {
			if !strings.HasPrefix(f.fn, "runtime.") {
				if strings.HasSuffix(f.fn, ".allocateForProfile") {
					objects += s.values[idx]
				}
				break
			}
		}
	}
	if objects != 1000 {
		t.Errorf("allocateForProfile made %d objects in the profile, want 1000", objects)
	}
	byLayer, err := attribute(p, "alloc_objects")
	if err != nil {
		t.Fatal(err)
	}
	if byLayer["bench"] < 1000 {
		t.Errorf("bench layer has %d objects, want at least 1000", byLayer["bench"])
	}
}

//go:noinline
func spinForProfile(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	return x
}

// TestParseCPUProfile profiles a busy loop and finds it in the samples.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byLayer, err := attribute(p, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range byLayer {
		total += v
	}
	if total == 0 || byLayer["bench"] < total/2 {
		t.Errorf("busy loop has %d of %d CPU ns, want most", byLayer["bench"], total)
	}
}

// TestParseProfileRejectsGarbage checks that malformed input is an
// error, not a panic.
func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		{0x12},             // sample field with a missing length
		{0x12, 0x05, 0x0a}, // length beyond the message
		{0x0f},             // unknown wire type 7
		{0x1f, 0x8b, 0x00}, // gzip header cut short
	} {
		if _, err := parseProfile(data); err == nil {
			t.Errorf("parseProfile(% x) succeeded", data)
		}
	}
}
