package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// environment is recorded with every result.
type environment struct {
	GitSHA string `json:"git_sha"`
	// SourceSHA256 hashes the checkout's Go sources and module files, so a
	// result names its code even where the checkout is not a git tree.
	SourceSHA256 string `json:"source_sha256"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	DataDirFS    string `json:"data_dir_fs"`
	Fsync        string `json:"fsync"`
	Coalescer    string `json:"coalescer"`
}

func gatherEnv(root, dataDir, fsync, coalescer string) environment {
	return environment{
		GitSHA:       gitSHA(root),
		SourceSHA256: sourceHash(root),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		DataDirFS:    fsType(dataDir),
		Fsync:        fsync,
		Coalescer:    coalescer,
	}
}

func gitSHA(root string) string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	// Never look for a repository above the checkout.
	if abs, err := filepath.Abs(root); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	}
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// sourceHash hashes every .go, go.mod and go.sum file under root in path
// order, skipping dot-directories (build output and scratch data).
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != root && strings.HasPrefix(e.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := e.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path) // path is under root
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fsType returns the type of the filesystem holding path, from the
// longest matching mount point in /proc/self/mounts.
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mnt := fields[1]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > len(best) {
			best, typ = mnt, fields[2]
		}
	}
	return typ
}

// resetPeakRSS sets the process's peak resident set size (VmHWM) to its
// current resident set size, reporting whether the kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
