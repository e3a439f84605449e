#include "util/flags.h"

#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "util/logging.h"

namespace flowmotif {

void FlagParser::AddInt64(const std::string& name, int64_t default_value,
                          const std::string& help) {
  FLOWMOTIF_CHECK(flags_.find(name) == flags_.end())
      << "duplicate flag: " << name;
  Flag f;
  f.type = Type::kInt64;
  f.help = help;
  f.int_value = default_value;
  flags_[name] = f;
}

void FlagParser::AddDouble(const std::string& name, double default_value,
                           const std::string& help) {
  FLOWMOTIF_CHECK(flags_.find(name) == flags_.end())
      << "duplicate flag: " << name;
  Flag f;
  f.type = Type::kDouble;
  f.help = help;
  f.double_value = default_value;
  flags_[name] = f;
}

void FlagParser::AddString(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  FLOWMOTIF_CHECK(flags_.find(name) == flags_.end())
      << "duplicate flag: " << name;
  Flag f;
  f.type = Type::kString;
  f.help = help;
  f.string_value = default_value;
  flags_[name] = f;
}

void FlagParser::AddBool(const std::string& name, bool default_value,
                         const std::string& help) {
  FLOWMOTIF_CHECK(flags_.find(name) == flags_.end())
      << "duplicate flag: " << name;
  Flag f;
  f.type = Type::kBool;
  f.help = help;
  f.bool_value = default_value;
  flags_[name] = f;
}

Status FlagParser::SetFromString(Flag* flag, const std::string& text,
                                 const std::string& name) {
  switch (flag->type) {
    case Type::kInt64: {
      char* end = nullptr;
      errno = 0;
      long long v = std::strtoll(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0') {
        return Status::InvalidArgument("flag --" + name +
                                       " expects an integer, got '" + text +
                                       "'");
      }
      // strtoll clamps an out-of-range value: reject it instead of
      // running a different query.
      if (errno == ERANGE) {
        return Status::InvalidArgument("flag --" + name +
                                       " is out of range: '" + text + "'");
      }
      flag->int_value = static_cast<int64_t>(v);
      return Status::OK();
    }
    case Type::kDouble: {
      char* end = nullptr;
      double v = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0') {
        return Status::InvalidArgument("flag --" + name +
                                       " expects a number, got '" + text +
                                       "'");
      }
      flag->double_value = v;
      return Status::OK();
    }
    case Type::kString:
      flag->string_value = text;
      return Status::OK();
    case Type::kBool: {
      if (text == "true" || text == "1") {
        flag->bool_value = true;
      } else if (text == "false" || text == "0") {
        flag->bool_value = false;
      } else {
        return Status::InvalidArgument("flag --" + name +
                                       " expects true/false, got '" + text +
                                       "'");
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    std::string value;
    bool has_value = false;
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      value = body.substr(eq + 1);
      body = body.substr(0, eq);
      has_value = true;
    }

    // `--no-name` form for booleans.
    if (!has_value && body.rfind("no-", 0) == 0) {
      auto it = flags_.find(body.substr(3));
      if (it != flags_.end() && it->second.type == Type::kBool) {
        it->second.bool_value = false;
        continue;
      }
    }

    auto it = flags_.find(body);
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + body);
    }
    Flag* flag = &it->second;

    if (!has_value) {
      if (flag->type == Type::kBool) {
        flag->bool_value = true;
        continue;
      }
      if (i + 1 >= argc) {
        return Status::InvalidArgument("flag --" + body + " needs a value");
      }
      value = argv[++i];
    }
    FLOWMOTIF_RETURN_IF_ERROR(SetFromString(flag, value, body));
  }
  return Status::OK();
}

const FlagParser::Flag& FlagParser::GetOrDie(const std::string& name,
                                             Type type) const {
  auto it = flags_.find(name);
  FLOWMOTIF_CHECK(it != flags_.end()) << "unregistered flag: " << name;
  FLOWMOTIF_CHECK(it->second.type == type) << "flag type mismatch: " << name;
  return it->second;
}

int64_t FlagParser::GetInt64(const std::string& name) const {
  return GetOrDie(name, Type::kInt64).int_value;
}

double FlagParser::GetDouble(const std::string& name) const {
  return GetOrDie(name, Type::kDouble).double_value;
}

const std::string& FlagParser::GetString(const std::string& name) const {
  return GetOrDie(name, Type::kString).string_value;
}

bool FlagParser::GetBool(const std::string& name) const {
  return GetOrDie(name, Type::kBool).bool_value;
}

std::string FlagParser::HelpString() const {
  std::ostringstream os;
  os << "Flags:\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << "  " << flag.help << " (default: ";
    switch (flag.type) {
      case Type::kInt64:
        os << flag.int_value;
        break;
      case Type::kDouble:
        os << flag.double_value;
        break;
      case Type::kString:
        os << '"' << flag.string_value << '"';
        break;
      case Type::kBool:
        os << (flag.bool_value ? "true" : "false");
        break;
    }
    os << ")\n";
  }
  return os.str();
}

Status ValidateThreadsFlag(int64_t threads) {
  if (threads < 0) {
    return Status::InvalidArgument(
        "--threads must be >= 0 (0 = all hardware threads), got " +
        std::to_string(threads));
  }
  if (threads > 4096) {
    return Status::InvalidArgument(
        "--threads=" + std::to_string(threads) +
        " is not a plausible thread count (max 4096)");
  }
  return Status::OK();
}

}  // namespace flowmotif
