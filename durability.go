package walrus

import (
	"fmt"
	"os"

	"walrus/internal/store"
	"walrus/internal/wal"
)

// DurabilityPolicy selects how aggressively a disk-backed database
// forces its write-ahead log to stable storage.
type DurabilityPolicy int

const (
	// DurabilityGroupCommit (the default) writes every commit to the OS
	// immediately but fsyncs the log only once enough bytes accumulate
	// (or at a checkpoint). A crash can lose the most recent operations,
	// but never corrupts the database: recovery discards the torn tail
	// and lands on the last synced commit.
	DurabilityGroupCommit DurabilityPolicy = iota
	// DurabilityAlways fsyncs the log at every commit: once Add or
	// Remove returns, the operation survives any crash.
	DurabilityAlways
	// DurabilityNone never fsyncs the log outside Close. Fastest;
	// operations since the last checkpoint may be lost on a crash (and,
	// if the OS also went down, a torn page may be unrepairable).
	DurabilityNone
)

func (p DurabilityPolicy) String() string {
	switch p {
	case DurabilityGroupCommit:
		return "group"
	case DurabilityAlways:
		return "always"
	case DurabilityNone:
		return "none"
	default:
		return fmt.Sprintf("DurabilityPolicy(%d)", int(p))
	}
}

// ParseDurability parses a policy name ("always", "group", "none") as
// accepted by the CLI -durability flags.
func ParseDurability(s string) (DurabilityPolicy, error) {
	switch s {
	case "group", "groupcommit", "group-commit":
		return DurabilityGroupCommit, nil
	case "always", "sync":
		return DurabilityAlways, nil
	case "none", "off":
		return DurabilityNone, nil
	default:
		return 0, fmt.Errorf("walrus: unknown durability policy %q (want always, group or none)", s)
	}
}

// FileOpener opens one file of a disk-backed database; flag carries
// os.OpenFile flags. Tests inject fault-injecting implementations
// (internal/crashfs) to exercise crash recovery. The field is ignored by
// the options encoder, so it never persists. nil means the real
// filesystem.
type FileOpener func(path string, flag int) (store.File, error)

func resolveFS(fs FileOpener) FileOpener {
	if fs != nil {
		return fs
	}
	return func(path string, flag int) (store.File, error) {
		return os.OpenFile(path, flag, 0o644)
	}
}

// RecoveryStats re-exports the WAL recovery report; see
// wal.RecoveryStats for field documentation.
type RecoveryStats = wal.RecoveryStats

// recovery returns the shard's crash-recovery report from Open. ok is
// false for in-memory shards.
func (sh *shard) recovery() (RecoveryStats, bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.persist == nil {
		return RecoveryStats{}, false
	}
	return sh.persist.recovery, true
}

// setDurability changes the shard's durability policy; a no-op for the
// log of an in-memory shard.
func (sh *shard) setDurability(p DurabilityPolicy) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.opts.Durability = p
	if sh.persist != nil {
		sh.persist.policy = p
	}
	// The changed option is part of the published state (Options reads
	// the current version), so commit it as a new version.
	sh.publishLocked()
}
