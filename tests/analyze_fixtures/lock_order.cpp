// Seeded lock-discipline violations: inconsistent acquisition order,
// blocking I/O under the reader-head mutex, and a re-acquisition through
// a helper. Both grapr_analyze frontends must flag them (grapr:expect
// markers).
//
// Never compiled — parsed only, hence the tiny std stand-ins.
namespace std {
struct mutex {};
template <class T> struct lock_guard {
    explicit lock_guard(T& m);
};
} // namespace std

std::mutex alphaMutex_;
std::mutex betaMutex_;
std::mutex headMutex_;

extern "C" int fsync(int fd);

// (1)+(2) the two functions acquire alpha/beta in opposite orders: two
// threads running them concurrently can deadlock.
void lockAlphaThenBeta() {
    std::lock_guard<std::mutex> a(alphaMutex_);
    std::lock_guard<std::mutex> b(betaMutex_);  // grapr:expect(lock-discipline)
}

void lockBetaThenAlpha() {
    std::lock_guard<std::mutex> b(betaMutex_);
    std::lock_guard<std::mutex> a(alphaMutex_);  // grapr:expect(lock-discipline)
}

// (3) blocking I/O while directly holding the reader-head mutex: every
// pinned reader stalls behind disk latency.
void syncUnderHeadLock() {
    std::lock_guard<std::mutex> head(headMutex_);
    fsync(0);  // grapr:expect(lock-discipline)
}

// (4) re-acquiring a held (non-reentrant) mutex through a helper call.
void helperLocksAlpha() {
    std::lock_guard<std::mutex> a(alphaMutex_);
}

void reacquireThroughHelper() {
    std::lock_guard<std::mutex> a(alphaMutex_);
    helperLocksAlpha();  // grapr:expect(lock-discipline)
}
