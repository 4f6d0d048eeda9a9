// Seeded durability-order violations: each numbered function below breaks
// the WAL/checkpoint ordering contract and must be flagged by BOTH
// grapr_analyze frontends at its grapr:expect marker.
// grapr:durability-scope
//
// Never compiled — parsed only. The macro stub keeps the fixture
// self-contained; the analyzer reads site names from the raw lines.
#define GRAPR_FAULT_POINT(site) ((void)0)

struct Snapshot {};

struct WalLike {
    void append(const Snapshot& snap, unsigned long generation);
};

void publish(Snapshot snap);
void poison(const char* reason);
void syncDirectoryOf(const char* path);
extern "C" int fsync(int fd);
extern "C" int rename(const char* from, const char* to);
extern "C" unsigned long fwrite(const void* data, unsigned long size,
                                unsigned long count, void* file);

// (1) durability-order: the publish is reachable before the WAL append —
// a crash after publish loses the acknowledged batch.
void publishBeforeAppend(WalLike& wal, Snapshot snap) {
    GRAPR_FAULT_POINT("fixture.publish.early");
    publish(snap);  // grapr:expect(durability-order)
    wal.append(snap, 1);
    fsync(0);
}

// (2) durability-order: the record is written but never fsync'd before
// the generation becomes visible.
void publishWithoutSync(WalLike& wal, Snapshot snap, void* file) {
    GRAPR_FAULT_POINT("fixture.publish.unsynced");
    fwrite(&snap, 1, 8, file);
    publish(snap);  // grapr:expect(durability-order)
}

// (3) durability-order: checkpoint rename with no fsync of the written
// temp file and no directory sync making the rename itself durable.
void renameUnordered(void* file) {
    GRAPR_FAULT_POINT("fixture.rename.bare");
    Snapshot snap;
    fwrite(&snap, 1, 8, file);
    rename("a.tmp", "a");  // grapr:expect(durability-order)
}

// The legal shape — append, fsync, guarded publish, then the full
// write/fsync/rename/dirsync checkpoint sequence: no findings here.
void commitCorrectly(WalLike& wal, Snapshot snap, void* file) {
    GRAPR_FAULT_POINT("fixture.commit.ok");
    wal.append(snap, 2);
    fsync(0);
    try {
        publish(snap);
    } catch (...) {
        poison("publish failed after the WAL became durable");
        throw;
    }
    fwrite(&snap, 1, 8, file);
    fsync(0);
    rename("b.tmp", "b");
    syncDirectoryOf("b");
}
