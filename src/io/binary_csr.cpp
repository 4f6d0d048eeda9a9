#include "io/binary_csr.hpp"

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define GRAPR_HAVE_POSIX_SYNC 1
#endif

#include "io/io_error.hpp"
#include "io/mapped_file.hpp"
#include "support/checksum.hpp"
#include "support/common.hpp"
#include "support/fault.hpp"

namespace grapr::io {

namespace {

constexpr char kMagic[4] = {'G', 'C', 'S', 'R'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 40;

static_assert(sizeof(index) == 8, "GCSR stores offsets as u64");
static_assert(sizeof(node) == 4, "GCSR stores neighbors as u32");
static_assert(sizeof(edgeweight) == 8, "GCSR stores weights as f64");

struct FileCloser {
    void operator()(std::FILE* f) const noexcept {
        if (f != nullptr) std::fclose(f);
    }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void putU32(unsigned char* dst, std::uint32_t v) {
    std::memcpy(dst, &v, sizeof v);
}
void putU64(unsigned char* dst, std::uint64_t v) {
    std::memcpy(dst, &v, sizeof v);
}
std::uint32_t getU32(const unsigned char* src) {
    std::uint32_t v = 0;
    std::memcpy(&v, src, sizeof v);
    return v;
}
std::uint64_t getU64(const unsigned char* src) {
    std::uint64_t v = 0;
    std::memcpy(&v, src, sizeof v);
    return v;
}

/// fwrite wrapper that keeps a running CRC and the byte offset for error
/// reports. Short writes surface as IoError at the exact offset.
class CrcFileWriter {
public:
    CrcFileWriter(std::FILE* file, std::string path)
        : file_(file), path_(std::move(path)) {}

    void write(const void* data, std::size_t bytes) {
        writeRaw(data, bytes);
        crc_ = crc32(data, bytes, crc_);
    }

    void writeRaw(const void* data, std::size_t bytes) {
        if (bytes == 0) return;
        GRAPR_FAULT_POINT("checkpoint.write");
        if (std::fwrite(data, 1, bytes, file_) != bytes) {
            throw IoError(path_, 0, written_,
                          "short write (disk full?)");
        }
        written_ += bytes;
    }

    std::uint32_t crc() const noexcept { return crc_; }
    count written() const noexcept { return written_; }

private:
    std::FILE* file_;
    std::string path_;
    std::uint32_t crc_ = 0;
    count written_ = 0;
};

void syncFile(std::FILE* file, const std::string& path, count offset) {
    GRAPR_FAULT_POINT("checkpoint.fsync");
#ifdef GRAPR_HAVE_POSIX_SYNC
    if (::fsync(::fileno(file)) != 0) {
        throw IoError(path, 0, offset, "fsync failed");
    }
#else
    (void)file;
    (void)path;
    (void)offset;
#endif
}

/// fsync the directory containing `path` so the rename itself is
/// durable. Open failure is tolerated (not every filesystem allows
/// opening directories); an fsync error on an open handle is not.
void syncDirectoryOf(const std::string& path) {
    GRAPR_FAULT_POINT("checkpoint.dirsync");
#ifdef GRAPR_HAVE_POSIX_SYNC
    const std::size_t slash = path.find_last_of('/');
    std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    if (dir.empty()) dir = "/";
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd < 0) return;
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) {
        throw IoError(dir, 0, 0, "directory fsync failed");
    }
#else
    (void)path;
#endif
}

} // namespace

void writeBinaryCsr(const CsrGraph& g, std::uint64_t generation,
                    const std::string& path) {
    const std::vector<index>& offsets = g.offsets();
    const std::vector<node>& neighbors = g.neighborArray();
    const std::vector<edgeweight>& weights = g.weightArray();
    const std::uint64_t bound = g.upperNodeIdBound();
    const std::uint64_t halfEdges = offsets.back();
    const bool weighted = g.isWeighted();
    require(!weighted || weights.size() == neighbors.size(),
            "writeBinaryCsr: weighted graph with mismatched weight array");

    const std::string tmp = path + ".tmp";
    GRAPR_FAULT_POINT("checkpoint.open");
    FilePtr file(std::fopen(tmp.c_str(), "wb"));
    if (!file) {
        throw IoError(tmp, 0, 0, "writeBinaryCsr: cannot open for writing");
    }
    try {
        unsigned char header[kHeaderBytes] = {};
        std::memcpy(header, kMagic, 4);
        putU32(header + 4, kVersion);
        putU64(header + 8, generation);
        putU64(header + 16, bound);
        putU64(header + 24, halfEdges);
        header[32] = weighted ? 1 : 0;

        CrcFileWriter out(file.get(), tmp);
        out.write(header, kHeaderBytes);
        out.write(offsets.data(), offsets.size() * sizeof(index));
        out.write(neighbors.data(), neighbors.size() * sizeof(node));
        if (neighbors.size() % 2 != 0) {
            const std::uint32_t zero = 0; // 8-align the weights array
            out.write(&zero, sizeof zero);
        }
        if (weighted) {
            out.write(weights.data(), weights.size() * sizeof(edgeweight));
        }
        unsigned char trailer[4];
        putU32(trailer, out.crc());
        out.writeRaw(trailer, sizeof trailer);

        if (std::fflush(file.get()) != 0) {
            throw IoError(tmp, 0, out.written(), "flush failed");
        }
        syncFile(file.get(), tmp, out.written());
        file.reset(); // close before rename
        GRAPR_FAULT_POINT("checkpoint.rename");
        if (std::rename(tmp.c_str(), path.c_str()) != 0) {
            throw IoError(path, 0, 0, "rename from temp file failed");
        }
        syncDirectoryOf(path);
    } catch (...) {
        file.reset();
        std::remove(tmp.c_str()); // best-effort; the original error wins
        throw;
    }
}

BinaryCsrSnapshot readBinaryCsr(const std::string& path) {
    MappedFile file(path);
    const auto* bytes = reinterpret_cast<const unsigned char*>(file.data());
    const std::size_t size = file.size();
    if (size < kHeaderBytes + 4) {
        throw IoError(path, 0, size,
                      "not a GCSR checkpoint (file too small)");
    }
    if (std::memcmp(bytes, kMagic, 4) != 0) {
        throw IoError(path, 0, 0, "not a GCSR checkpoint (bad magic)");
    }
    const std::uint32_t version = getU32(bytes + 4);
    if (version != kVersion) {
        throw IoError(path, 0, 4,
                      "unsupported GCSR version " + std::to_string(version));
    }
    const std::uint64_t generation = getU64(bytes + 8);
    const std::uint64_t bound = getU64(bytes + 16);
    const std::uint64_t halfEdges = getU64(bytes + 24);
    const bool weighted = bytes[32] != 0;

    // Overflow-safe size check: each array is bounded by the file itself.
    if (bound > size / sizeof(index) || halfEdges > size / sizeof(node)) {
        throw IoError(path, 0, 16, "GCSR header sizes exceed the file");
    }
    const std::uint64_t pad = halfEdges % 2 != 0 ? 4 : 0;
    const std::uint64_t expected =
        kHeaderBytes + (bound + 1) * sizeof(index) +
        halfEdges * sizeof(node) + pad +
        (weighted ? halfEdges * sizeof(edgeweight) : 0) + 4;
    if (expected != size) {
        throw IoError(path, 0, size,
                      "truncated or oversized GCSR checkpoint (expected " +
                          std::to_string(expected) + " bytes)");
    }
    const std::uint32_t stored = getU32(bytes + size - 4);
    if (crc32(bytes, size - 4) != stored) {
        throw IoError(path, 0, size - 4, "GCSR checksum mismatch");
    }

    std::vector<index> offsets(bound + 1);
    std::memcpy(offsets.data(), bytes + kHeaderBytes,
                offsets.size() * sizeof(index));
    if (offsets[0] != 0 || offsets[bound] != halfEdges) {
        throw IoError(path, 0, kHeaderBytes, "GCSR offsets are inconsistent");
    }
    for (std::uint64_t v = 0; v < bound; ++v) {
        if (offsets[v] > offsets[v + 1]) {
            throw IoError(path, 0, kHeaderBytes,
                          "GCSR offsets are not monotonic");
        }
    }

    const unsigned char* neighborBytes =
        bytes + kHeaderBytes + offsets.size() * sizeof(index);
    // An empty vector's data() may be null, and memcpy to null is
    // undefined even for zero bytes: copy only when there is something.
    std::vector<node> neighbors(halfEdges);
    if (halfEdges > 0) {
        std::memcpy(neighbors.data(), neighborBytes,
                    neighbors.size() * sizeof(node));
    }
    for (const node v : neighbors) {
        if (v >= bound) {
            throw IoError(path, 0, 0,
                          "GCSR neighbor id out of range (corrupt file?)");
        }
    }

    std::vector<edgeweight> weights;
    if (weighted && halfEdges > 0) {
        const unsigned char* weightBytes =
            neighborBytes + neighbors.size() * sizeof(node) + pad;
        weights.resize(halfEdges);
        std::memcpy(weights.data(), weightBytes,
                    weights.size() * sizeof(edgeweight));
    }

    BinaryCsrSnapshot snapshot;
    snapshot.generation = generation;
    snapshot.graph = CsrGraph(std::move(offsets), std::move(neighbors),
                              std::move(weights), weighted);
    return snapshot;
}

} // namespace grapr::io
