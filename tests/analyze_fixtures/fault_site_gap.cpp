// Seeded fault-site-coverage violation: writeUncovered does raw
// fwrite/fsync/rename I/O with no GRAPR_FAULT_POINT anywhere in the
// function, so the crash harness can never kill or fail inside it. Both
// frontends must flag it (grapr:expect markers); writeCovered is the
// legal twin.
// grapr:durability-scope
#define GRAPR_FAULT_POINT(site) ((void)0)

void syncDirectoryOf(const char* path);
extern "C" int fsync(int fd);
extern "C" int rename(const char* from, const char* to);
extern "C" unsigned long fwrite(const void* data, unsigned long size,
                                unsigned long count, void* file);

void writeUncovered(void* file) {
    int payload = 7;
    fwrite(&payload, sizeof payload, 1, file);  // grapr:expect(fault-site-coverage)
    fsync(0);  // grapr:expect(fault-site-coverage)
    rename("c.tmp", "c");  // grapr:expect(fault-site-coverage)
    syncDirectoryOf("c");
}

void writeCovered(void* file) {
    GRAPR_FAULT_POINT("fixture.covered.write");
    int payload = 7;
    fwrite(&payload, sizeof payload, 1, file);
    fsync(0);
    rename("d.tmp", "d");
    syncDirectoryOf("d");
}
