// Seeded poison-path violation: the ordering is right (append, fsync,
// publish) but the failure edge between the durable append and the
// publish reaches neither rollback (truncate) nor poison marking — a
// crash there leaves the log ahead of memory with the engine still
// accepting commits. Both frontends must flag it (grapr:expect marker).
// grapr:durability-scope
#define GRAPR_FAULT_POINT(site) ((void)0)

struct Snapshot {};

struct WalLike {
    void append(const Snapshot& snap, unsigned long generation);
};

void publish(Snapshot snap);
extern "C" int fsync(int fd);

void commitWithoutHandler(WalLike& wal, Snapshot snap) {
    GRAPR_FAULT_POINT("fixture.commit.unguarded");
    wal.append(snap, 1);
    fsync(0);
    publish(snap);  // grapr:expect(poison-path)
}
