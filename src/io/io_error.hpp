#pragma once
// IoError — the structured exception every grapr text parser throws on
// malformed input. Carries the source name (usually a path), the 1-based
// line number and the byte offset of the offending position, so tooling
// can point at the exact spot instead of printing "parse failed".
//
// A line of 0 means the error is not tied to one line (e.g. the file
// could not be opened, or a whole-file consistency check failed); the
// byte offset is always within [0, file size]. A recoverable error is one
// that permissive parsing (ParseOptions::strict = false) skips or
// tolerates instead of throwing.

#include <stdexcept>
#include <string>

#include "support/common.hpp"

namespace grapr::io {

class IoError : public std::runtime_error {
public:
    IoError(std::string path, count line, count byteOffset,
            const std::string& message, bool recoverable = false)
        : std::runtime_error(format(path, line, byteOffset, message)),
          path_(std::move(path)),
          line_(line),
          byteOffset_(byteOffset),
          recoverable_(recoverable) {}

    /// Source the error occurred in (file path or buffer name).
    const std::string& path() const noexcept { return path_; }

    /// 1-based line of the offending token; 0 if not line-specific.
    count line() const noexcept { return line_; }

    /// Byte offset of the offending position within the input.
    count byteOffset() const noexcept { return byteOffset_; }

    /// True when permissive parsing would skip or tolerate this error.
    bool recoverable() const noexcept { return recoverable_; }

private:
    static std::string format(const std::string& path, count line,
                              count byteOffset, const std::string& message) {
        std::string out = path;
        if (line > 0) {
            out += ":" + std::to_string(line);
        }
        out += ": " + message + " (byte " + std::to_string(byteOffset) + ")";
        return out;
    }

    std::string path_;
    count line_;
    count byteOffset_;
    bool recoverable_;
};

} // namespace grapr::io
