package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// profLayers are the layers a CPU profile's self time is grouped into, in
// reporting order. Samples in no layer (syscalls, net/http, encoding/json,
// the rest of the runtime) count toward the total only.
var profLayers = []string{"sim", "machine", "comm", "mem", "sched", "workload",
	"arrival", "stats", "serve", "fmt", "rt_sched", "rt_alloc", "rt_gc"}

// layerOf maps a fully qualified function name to its layer, "" for none.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch pkg {
	case "repro/internal/sim":
		return "sim"
	case "repro/internal/machine":
		return "machine"
	case "repro/internal/comm":
		return "comm"
	case "repro/internal/mem":
		return "mem"
	case "repro/internal/sched":
		return "sched"
	case "repro/internal/workload":
		return "workload"
	case "repro/internal/arrival":
		return "arrival"
	case "repro/internal/stats", "repro/internal/stats/stream":
		return "stats"
	case "repro/internal/serve":
		return "serve"
	case "fmt", "strconv":
		return "fmt"
	case "runtime":
		return runtimeLayer(strings.TrimPrefix(fn, "runtime."))
	}
	return ""
}

// Runtime functions by what they serve. Goroutine hand-off covers channel
// operations, parking and scheduling, and stack growth; the lists name the
// hot entry points, not every helper.
var (
	rtGC = []string{"gc", "scanobject", "scanblock", "scanstack", "markroot",
		"greyobject", "findObject", "sweep", "bgsweep", "bgscavenge", "(*gcWork)",
		"(*gcControllerState)", "wbBuf", "bulkBarrier", "typePointers", "(*mspan).sweep",
		"(*sweepLocked)", "(*mheap).reclaim", "spanOf", "heapBitsForAddr", "(*gcBits)"}
	rtAlloc = []string{"mallocgc", "newobject", "newarray", "makeslice", "growslice",
		"makemap", "(*mcache)", "(*mcentral)", "(*mheap)", "nextFreeFast", "memclrNoHeapPointers",
		"(*mspan)", "heapSetType", "deductAssistCredit", "(*fixalloc)", "rawstring", "rawbyteslice",
		"concatstring", "slicebytetostring", "convT", "mapassign", "(*pageAlloc)"}
	rtSched = []string{"chan", "selectgo", "selectnb", "send", "recv", "gopark", "goready",
		"ready", "park_m", "schedule", "findRunnable", "execute", "gogo", "mcall", "runq",
		"globrunq", "lock", "unlock", "futex", "notesleep", "notewakeup", "newstack",
		"morestack", "copystack", "stealWork", "casgstatus", "newproc", "goexit", "gfget",
		"gfput", "mPark", "stopm", "startm", "wakep", "resetspinning", "acquirep",
		"releasep", "handoffp", "systemstack", "acquireSudog", "releaseSudog", "(*waitq)",
		"checkTimers", "usleep", "osyield", "procyield", "goschedImpl", "gosched",
		"semacquire", "semrelease", "(*lfstack)", "dropg", "runSafePointFn",
		// Stack growth walks the frames it copies.
		"adjust", "(*stkframe)", "(*unwinder)", "pcvalue", "funcspdelta", "findfunc", "step"}
)

func runtimeLayer(fn string) string {
	for _, group := range []struct {
		layer    string
		prefixes []string
	}{{"rt_gc", rtGC}, {"rt_alloc", rtAlloc}, {"rt_sched", rtSched}} {
		for _, p := range group.prefixes {
			if strings.HasPrefix(fn, p) {
				return group.layer
			}
		}
	}
	return ""
}

// profileShares reads a gzip-compressed pprof CPU profile and returns each
// layer's share of self time in percent. Self time is charged to the
// innermost function of each sample's leaf location.
func profileShares(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1]
		total += v
		if fn, ok := p.leafFunc(s.locs[0]); ok {
			byLayer[layerOf(fn)] += v
		}
	}
	out := make(map[string]float64, len(profLayers))
	for _, l := range profLayers {
		out[l] = 0
		if total > 0 {
			out[l] = 100 * float64(byLayer[l]) / float64(total)
		}
	}
	return out, nil
}

// profile is the subset of the pprof protobuf (profile.proto) that self
// time by function needs: samples, locations' innermost lines, function
// names and the string table.
type profile struct {
	samples  []sample
	locFunc  map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]int64  // function id -> string table index
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

func (p *profile) leafFunc(loc uint64) (string, bool) {
	fid, ok := p.locFunc[loc]
	if !ok {
		return "", false
	}
	si, ok := p.funcName[fid]
	if !ok || si < 0 || int(si) >= len(p.strings) {
		return "", false
	}
	return p.strings[si], true
}

// Field numbers from profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func parseProfile(data []byte) (*profile, error) {
	p := &profile{locFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fProfileSample:
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fSampleLocation:
					return appendVarints(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return appendVarints(wire, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id, fn uint64
			first := true
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					// The first line is the innermost inlined function.
					if first {
						first = false
						return eachField(b, func(num, wire int, v uint64, b []byte) error {
							if num == fLineFunction {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			if !first {
				p.locFunc[id] = fn
			}
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(p.strings) == 0 {
		return nil, errors.New("not a pprof profile: empty string table")
	}
	return p, nil
}

// Protobuf wire types used by profile.proto.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("truncated protobuf key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("truncated protobuf varint")
			}
			data = data[n:]
		case wireBytes:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("truncated protobuf bytes")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case wire64:
			if len(data) < 8 {
				return errors.New("truncated protobuf fixed64")
			}
			data = data[8:]
		case wire32:
			if len(data) < 4 {
				return errors.New("truncated protobuf fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated integer field in either encoding: one
// varint, or a packed run of varints.
func appendVarints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == wireVarint {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("truncated packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
