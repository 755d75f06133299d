// Command-line plumbing shared by the tools: a tiny flag scanner, whole-
// file read/write, and the observability flags every command accepts.
#pragma once

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/log.h"
#include "util/error.h"

namespace sramlp::cli {

/// --name value pairs plus boolean switches, consumed as they are read so
/// reject_leftovers() can name whatever nobody asked for.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  bool flag(const std::string& name) {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == name) {
        args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  std::optional<std::string> value(const std::string& name) {
    for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == name) {
        std::string v = args_[i + 1];
        args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i),
                    args_.begin() + static_cast<std::ptrdiff_t>(i) + 2);
        return v;
      }
    }
    return std::nullopt;
  }

  std::string require(const std::string& name) {
    auto v = value(name);
    if (!v) throw Error("missing required option " + name);
    return *v;
  }

  std::size_t number(const std::string& name, std::size_t fallback) {
    auto v = value(name);
    if (!v) return fallback;
    // std::stoull accepts (and wraps) negative input and throws
    // std::out_of_range past 2^64; reject anything that is not a plain
    // decimal count that fits.
    const Error bad("option " + name + " needs a non-negative integer, got '" +
                    *v + "'");
    if (v->empty() || v->find_first_not_of("0123456789") != std::string::npos)
      throw bad;
    try {
      return static_cast<std::size_t>(std::stoull(*v));
    } catch (const std::out_of_range&) {
      throw bad;
    }
  }

  double real(const std::string& name, double fallback) {
    auto v = value(name);
    if (!v) return fallback;
    try {
      std::size_t used = 0;
      const double parsed = std::stod(*v, &used);
      if (used != v->size()) throw std::invalid_argument(*v);
      return parsed;
    } catch (const std::exception&) {
      throw Error("option " + name + " needs a number, got '" + *v + "'");
    }
  }

  void reject_leftovers() const {
    if (!args_.empty()) throw Error("unrecognized argument '" + args_[0] + "'");
  }

 private:
  std::vector<std::string> args_;
};

inline std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw Error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

inline void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.good()) throw Error("cannot write " + path);
  out << content;
  if (!out.good()) throw Error("short write on " + path);
}

/// Observability flags shared by every command, consumed before dispatch
/// so reject_leftovers() never sees them.  A --log-level is also exported
/// as SRAMLP_LOG, so subprocesses a command spawns inherit the level.
inline void apply_logging_flags(Args& args) {
  const std::optional<std::string> level_text = args.value("--log-level");
  const std::optional<std::string> format_text = args.value("--log-format");
  const std::optional<std::string> file = args.value("--log-file");
  // --log-max-bytes N: rotate the log file to PATH.1 once it reaches N
  // bytes (obs::Logger keeps one rotated generation).  Only meaningful
  // with --log-file; the cap is ignored for the stderr sink.
  const std::size_t max_bytes = args.number("--log-max-bytes", 0);
  if (max_bytes > 0 && !file)
    throw Error("--log-max-bytes needs --log-file (stderr never rotates)");
  if (!level_text && !format_text && !file) return;
  const obs::LogLevel level = level_text
                                  ? obs::log_level_from_string(*level_text)
                                  : obs::Logger::global().level();
  obs::Logger::Format format = obs::Logger::Format::kHuman;
  if (format_text) {
    if (*format_text == "jsonl") {
      format = obs::Logger::Format::kJsonl;
    } else if (*format_text != "human") {
      throw Error("--log-format must be human or jsonl, got '" +
                  *format_text + "'");
    }
  }
  obs::Logger::global().configure(level, format,
                                  file ? *file : std::string(), max_bytes);
  if (level_text) ::setenv("SRAMLP_LOG", level_text->c_str(), 1);
}

}  // namespace sramlp::cli
