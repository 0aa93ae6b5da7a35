package geodb

import (
	"errors"
	"testing"

	"repro/internal/catalog"
	"repro/internal/storage"
)

// Follower-mode tests: the read-only guards and the snapshot/open-follower
// round trip replication is built on.

func defineStation(t testing.TB, db *DB) {
	t.Helper()
	if err := db.DefineSchema("net"); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineClass("net", catalog.Class{
		Name: "Station",
		Attrs: []catalog.Field{
			catalog.F("name", catalog.Scalar(catalog.KindText)),
			catalog.F("load", catalog.Scalar(catalog.KindInteger)),
		},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestReadOnlyGuards: every mutation path on a read-only database fails
// with ErrReadOnly and changes nothing.
func TestReadOnlyGuards(t *testing.T) {
	// Build a populated page file first.
	pager := storage.NewMemPager()
	db := mustOpen(t, Options{Pager: pager, WALFile: storage.NewMemLogFile()})
	defineStation(t, db)
	oid, err := db.Insert(testCtx, "net", "Station", []catalog.Value{
		catalog.TextVal("s0"), catalog.IntVal(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	ro, err := OpenFollower("GEO", pager)
	if err != nil {
		t.Fatalf("open follower: %v", err)
	}
	if _, err := ro.Insert(testCtx, "net", "Station", []catalog.Value{
		catalog.TextVal("s1"), catalog.IntVal(2),
	}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Insert on follower: %v, want ErrReadOnly", err)
	}
	if err := ro.UpdateAttr(testCtx, oid, "load", catalog.IntVal(9)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("UpdateAttr on follower: %v, want ErrReadOnly", err)
	}
	if err := ro.Delete(testCtx, oid); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Delete on follower: %v, want ErrReadOnly", err)
	}
	// Reads still work and see the primary's data.
	in, err := ro.GetValue(testCtx, oid)
	if err != nil {
		t.Fatalf("GetValue on follower: %v", err)
	}
	if in.Values[0].Text != "s0" {
		t.Fatalf("follower read %q, want s0", in.Values[0].Text)
	}
	if n := ro.Count("net", "Station"); n != 1 {
		t.Fatalf("follower counts %d instances, want 1", n)
	}
}

// TestSnapshotPagesRoundTrip: SnapshotPages yields a page set that a
// follower opens into the same state, and the returned LSN is the durable
// checkpoint it corresponds to.
func TestSnapshotPagesRoundTrip(t *testing.T) {
	db := mustOpen(t, Options{Pager: storage.NewMemPager(), WALFile: storage.NewMemLogFile()})
	defineStation(t, db)
	for i := 0; i < 10; i++ {
		if _, err := db.Insert(testCtx, "net", "Station", []catalog.Value{
			catalog.TextVal("s"), catalog.IntVal(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}

	clone := storage.NewMemPager()
	lsn, err := db.SnapshotPages(func(id storage.PageID, p *storage.Page) error {
		for clone.NumPages() <= uint32(id) {
			if _, err := clone.Allocate(); err != nil {
				return err
			}
		}
		return clone.WritePage(id, p)
	})
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if lsn == 0 || lsn != db.WAL().SyncedLSN() {
		t.Fatalf("snapshot LSN %d, durable %d; want equal and nonzero", lsn, db.WAL().SyncedLSN())
	}

	follower, err := OpenFollower("GEO", clone)
	if err != nil {
		t.Fatalf("open follower on snapshot: %v", err)
	}
	if n := follower.Count("net", "Station"); n != 10 {
		t.Fatalf("follower sees %d instances, want 10", n)
	}
	// The snapshot is a copy: the primary keeps mutating independently.
	if _, err := db.Insert(testCtx, "net", "Station", []catalog.Value{
		catalog.TextVal("s"), catalog.IntVal(99),
	}); err != nil {
		t.Fatal(err)
	}
	if n := follower.Count("net", "Station"); n != 10 {
		t.Fatalf("follower state moved with the primary: %d instances", n)
	}
}

// TestSnapshotRequiresWAL: a WAL-less database cannot be a replication
// primary.
func TestSnapshotRequiresWAL(t *testing.T) {
	db := mustOpen(t, Options{DisableWAL: true})
	if _, err := db.SnapshotPages(func(storage.PageID, *storage.Page) error { return nil }); err == nil {
		t.Fatal("SnapshotPages on a WAL-less database succeeded")
	}
}
