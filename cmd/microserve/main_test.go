package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/wal"
)

// walSpec and rateSpec gather what parseWAL and parseRateLimit return,
// so one table can compare them.
type walSpec struct {
	Dir string
	Opt wal.Options
}

type rateSpec struct {
	Rate  float64
	Burst int
	TTL   time.Duration
}

func online(spec string) (any, error) { return parseOnline(spec) }

func walOf(spec string) (any, error) {
	dir, opt, err := parseWAL(spec)
	return walSpec{dir, opt}, err
}

func rateOf(spec string) (any, error) {
	rate, burst, ttl, err := parseRateLimit(spec)
	return rateSpec{rate, burst, ttl}, err
}

// TestSpecParsers runs the -online, -wal and -ratelimit parsers over one
// table: an accepted spec parses to the values it names, and a bad one
// is refused with an error naming what is wrong — among them a NaN or
// infinite rate, a decay outside [0, 1] and a size whose byte count
// overflows int64, which once parsed without an error.
func TestSpecParsers(t *testing.T) {
	for _, tc := range []struct {
		parser  string
		parse   func(string) (any, error)
		spec    string
		want    any    // the parse of an accepted spec
		wantErr string // a part of the error of a refused one
	}{
		{"online", online, "model=pbm,interval=30s", stream.Config{Models: []string{"pbm"}, Interval: 30 * time.Second}, ""},
		{"online", online, "model=sdbn+micro,interval=10s,decay=0.98,window=20000",
			stream.Config{Models: []string{"sdbn", "micro"}, Interval: 10 * time.Second, Decay: 0.98, Window: 20000}, ""},
		{"online", online, "models=pbm, model=dbn ,shards=4,queue=1024,min=10,iters=3,decay=1",
			stream.Config{Models: []string{"pbm", "dbn"}, Shards: 4, QueueCap: 1024, MinEvents: 10, Iterations: 3, Decay: 1}, ""},
		{"online", online, "model=pbm,decay=0", stream.Config{Models: []string{"pbm"}}, ""},
		{"online", online, "", nil, `bad spec entry "" (want key=value)`},
		{"online", online, "model=", nil, `bad spec entry "model=" (want key=value)`},
		{"online", online, "interval=1s", nil, "spec needs at least one model=NAME entry"},
		{"online", online, "model=pbm,bogus=1", nil, `unknown spec key "bogus" (model, interval, window, decay, shards, queue, min, iters)`},
		{"online", online, "model=pbm,window=x", nil, `bad window value "x"`},
		{"online", online, "model=pbm,decay=NaN", nil, `bad decay value "NaN": want a fraction in [0, 1]`},
		{"online", online, "model=pbm,decay=1.5", nil, `bad decay value "1.5"`},
		{"online", online, "model=pbm,decay=-0.1", nil, `bad decay value "-0.1"`},
		{"online", online, "model=pbm,decay=Inf", nil, `bad decay value "Inf"`},

		{"wal", walOf, "dir=/var/lib/microserve/wal", walSpec{Dir: "/var/lib/microserve/wal"}, ""},
		{"wal", walOf, "dir=./wal,fsync=always,segment=64MB,retain=1h",
			walSpec{"./wal", wal.Options{Sync: wal.SyncAlways, SegmentBytes: 64 << 20, Retention: time.Hour}}, ""},
		{"wal", walOf, "dir=w,fsync=interval=250ms,age=5m,max=2GB",
			walSpec{"w", wal.Options{Sync: wal.SyncBatched, SyncInterval: 250 * time.Millisecond, SegmentAge: 5 * time.Minute, MaxBytes: 2 << 30}}, ""},
		{"wal", walOf, "dir=w,fsync=off,segment=100B,max=512KB",
			walSpec{"w", wal.Options{Sync: wal.SyncOff, SegmentBytes: 100, MaxBytes: 512 << 10}}, ""},
		{"wal", walOf, "dir=w,max=8589934591GB", walSpec{"w", wal.Options{MaxBytes: 8589934591 << 30}}, ""},
		{"wal", walOf, "fsync=always", nil, "spec needs dir=PATH"},
		{"wal", walOf, "dir=w,size=1", nil, `unknown spec key "size" (dir, fsync, segment, age, retain, max)`},
		{"wal", walOf, "dir=w,segment=0", nil, `bad segment value "0": size must be positive`},
		{"wal", walOf, "dir=w,segment=-5MB", nil, `bad segment value "-5MB": size must be positive`},
		{"wal", walOf, "dir=w,fsync=interval=0s", nil, `bad fsync value "interval=0s": interval must be positive`},
		{"wal", walOf, "dir=w,fsync=sometimes", nil, `bad fsync value "sometimes": want always, off or interval=DURATION`},
		{"wal", walOf, "dir=w,max=9000000000GB", nil, `bad max value "9000000000GB": size overflows int64`},
		{"wal", walOf, "dir=w,max=8589934592GB", nil, `bad max value "8589934592GB": size overflows int64`},

		{"ratelimit", rateOf, "rate=5000,burst=10000", rateSpec{5000, 10000, 0}, ""},
		{"ratelimit", rateOf, "rate=2.5", rateSpec{2.5, 5, 0}, ""},
		{"ratelimit", rateOf, "rate=100,ttl=30s", rateSpec{100, 200, 30 * time.Second}, ""},
		{"ratelimit", rateOf, "rate=1e300", rateSpec{1e300, math.MaxInt32, 0}, ""},
		{"ratelimit", rateOf, "rate=5e18", rateSpec{5e18, math.MaxInt32, 0}, ""},
		{"ratelimit", rateOf, "rate=0", nil, "spec needs rate=EVENTS_PER_SEC > 0"},
		{"ratelimit", rateOf, "burst=5", nil, "spec needs rate=EVENTS_PER_SEC > 0"},
		{"ratelimit", rateOf, "rate=-Inf", nil, "spec needs rate=EVENTS_PER_SEC > 0"},
		{"ratelimit", rateOf, "rate=5,ttl=soon", nil, `bad ttl value "soon"`},
		{"ratelimit", rateOf, "rate=5,cap=1", nil, `unknown spec key "cap" (rate, burst, ttl)`},
		{"ratelimit", rateOf, "rate=NaN", nil, `bad rate value "NaN": want a finite number`},
		{"ratelimit", rateOf, "rate=Inf", nil, `bad rate value "Inf": want a finite number`},
		{"ratelimit", rateOf, "rate=1e400", nil, `bad rate value "1e400": strconv.ParseFloat`},
	} {
		got, err := tc.parse(tc.spec)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s %q: %v", tc.parser, tc.spec, err)
		case tc.wantErr == "" && !reflect.DeepEqual(got, tc.want):
			t.Errorf("%s %q = %+v, want %+v", tc.parser, tc.spec, got, tc.want)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s %q: error %v, want one containing %q (parsed %+v)", tc.parser, tc.spec, err, tc.wantErr, got)
		}
	}
}
