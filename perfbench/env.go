package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env stamps a result with what it was measured on and what it measured.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// SourceSHA256 identifies the measured code when the checkout carries
	// no version control metadata: a digest of every file under the
	// working directory outside dot-directories.
	SourceSHA256 string `json:"source_sha256"`
	CPUModel     string `json:"cpu_model"`
}

func stampEnv() env {
	e := env{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       "unknown",
		SourceSHA256: sourceDigest("."),
		CPUModel:     cpuModel(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resolved reads the configuration a constructor actually chose, so a
// later change to a default shows up as a difference in the result.
// Each path walks struct fields by name (exported or not) through
// pointers and interfaces, with a number indexing a slice; the value is
// the dynamic type found there, or the number for an integer field; an
// empty path names v itself.
// A path that no longer exists reads "unknown".
func resolved(v any, paths map[string]string) map[string]any {
	out := make(map[string]any, len(paths))
	for key, path := range paths {
		out[key] = "unknown"
		var steps []string
		if path != "" {
			steps = strings.Split(path, ".")
		}
		f, ok := walk(reflect.ValueOf(v), steps)
		if !ok {
			continue
		}
		switch f.Kind() {
		case reflect.Int, reflect.Int64, reflect.Int32:
			out[key] = f.Int()
		case reflect.Bool:
			out[key] = f.Bool()
		default:
			out[key] = f.Type().String()
		}
	}
	return out
}

func walk(v reflect.Value, path []string) (reflect.Value, bool) {
	for {
		for v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface {
			if v.IsNil() {
				return v, len(path) == 0 && v.Kind() == reflect.Pointer
			}
			if len(path) == 0 && v.Kind() == reflect.Pointer {
				return v, true
			}
			v = v.Elem()
		}
		if len(path) == 0 {
			return v, true
		}
		switch v.Kind() {
		case reflect.Struct:
			v = v.FieldByName(path[0])
			if !v.IsValid() {
				return v, false
			}
		case reflect.Slice:
			i, err := strconv.Atoi(path[0])
			if err != nil || i >= v.Len() {
				return v, false
			}
			v = v.Index(i)
		default:
			return v, false
		}
		path = path[1:]
	}
}

func nproc() int { return runtime.NumCPU() }
