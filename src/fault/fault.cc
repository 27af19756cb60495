#include "fault/fault.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>

#include "core/json.hh"
#include "core/logging.hh"

namespace uqsim::fault {

std::string
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Crash:
        return "crash";
      case FaultKind::ErrorRate:
        return "errors";
      case FaultKind::Slowdown:
        return "slow";
      case FaultKind::Partition:
        return "partition";
    }
    return "unknown";
}

std::string
crashRoleName(CrashRole role)
{
    switch (role) {
      case CrashRole::None:
        return "none";
      case CrashRole::Leader:
        return "leader";
      case CrashRole::Follower:
        return "follower";
    }
    return "unknown";
}

bool
crashRoleByName(const std::string &name, CrashRole &out)
{
    if (name == "leader")
        out = CrashRole::Leader;
    else if (name == "follower")
        out = CrashRole::Follower;
    else if (name == "none")
        out = CrashRole::None;
    else
        return false;
    return true;
}

std::string
FaultSpec::describe() const
{
    std::string s = strCat(faultKindName(kind),
                           " t=", ticksToMs(start), "ms");
    if (duration)
        s += strCat(" dur=", ticksToMs(duration), "ms");
    switch (kind) {
      case FaultKind::Crash:
        if (role != CrashRole::None)
            s += strCat(" ", service, " group=", instance,
                        " role=", crashRoleName(role));
        else
            s += strCat(" ", service, "[", instance, "]");
        break;
      case FaultKind::ErrorRate:
        s += strCat(" ", service, " rate=", rate);
        break;
      case FaultKind::Slowdown:
        s += strCat(" server=", server, " factor=", factor);
        break;
      case FaultKind::Partition:
        s += strCat(" ", groupA.first, "-", groupA.last, " | ",
                    groupB.first, "-", groupB.last, " loss=", loss);
        break;
    }
    return s;
}

bool
parseNumber(const std::string &text, double &out)
{
    try {
        std::size_t used = 0;
        const double v = std::stod(text, &used);
        if (used != text.size() || !std::isfinite(v))
            return false;
        out = v;
        return true;
    } catch (...) {
        return false;
    }
}

bool
parseCount(const std::string &text, std::uint64_t &out)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    try {
        out = std::stoull(text);
        return true;
    } catch (...) {
        return false; // more than 64 bits
    }
}

bool
parseDuration(const std::string &text, Tick &out)
{
    std::size_t i = 0;
    while (i < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[i])) ||
            text[i] == '.'))
        ++i;
    double value = 0.0;
    if (i == 0 || !parseNumber(text.substr(0, i), value))
        return false;
    const std::string unit = text.substr(i);
    double scale;
    if (unit.empty() || unit == "ms")
        scale = static_cast<double>(kTicksPerMs);
    else if (unit == "ns")
        scale = 1.0;
    else if (unit == "us")
        scale = static_cast<double>(kTicksPerUs);
    else if (unit == "s")
        scale = static_cast<double>(kTicksPerSec);
    else
        return false;
    // 0x1p64 is the first double past the largest Tick.
    if (value < 0.0 || value * scale >= 0x1p64)
        return false;
    out = static_cast<Tick>(value * scale);
    return true;
}

namespace {

bool
parseUnsigned(const std::string &text, unsigned &out)
{
    std::uint64_t v = 0;
    if (!parseCount(text, v) || v > std::numeric_limits<unsigned>::max())
        return false;
    out = static_cast<unsigned>(v);
    return true;
}

bool
parseRange(const std::string &text, ServerRange &out)
{
    const std::size_t dash = text.find('-');
    if (dash == std::string::npos) {
        unsigned v;
        if (!parseUnsigned(text, v))
            return false;
        out.first = out.last = v;
        return true;
    }
    if (!parseUnsigned(text.substr(0, dash), out.first) ||
        !parseUnsigned(text.substr(dash + 1), out.last))
        return false;
    return out.first <= out.last;
}

bool
kindFromName(const std::string &name, FaultKind &out)
{
    if (name == "crash")
        out = FaultKind::Crash;
    else if (name == "errors" || name == "error" || name == "error-rate")
        out = FaultKind::ErrorRate;
    else if (name == "slow" || name == "slowdown")
        out = FaultKind::Slowdown;
    else if (name == "partition")
        out = FaultKind::Partition;
    else
        return false;
    return true;
}

/**
 * Apply one key=value pair to @p spec; shared between the flag parser
 * and the JSON parser so both syntaxes accept the same keys.
 */
bool
applyKey(FaultSpec &spec, const std::string &key, const std::string &value,
         std::string &error)
{
    if (key == "t" || key == "start") {
        if (!parseDuration(value, spec.start)) {
            error = strCat("bad time '", value, "' for key '", key, "'");
            return false;
        }
    } else if (key == "dur" || key == "duration") {
        if (!parseDuration(value, spec.duration)) {
            error = strCat("bad duration '", value, "'");
            return false;
        }
    } else if (key == "service") {
        if (value.empty()) {
            error = "empty service name";
            return false;
        }
        spec.service = value;
    } else if (key == "instance") {
        if (!parseUnsigned(value, spec.instance)) {
            error = strCat("bad instance '", value, "'");
            return false;
        }
    } else if (key == "role") {
        if (!crashRoleByName(value, spec.role)) {
            error = strCat("bad role '", value,
                           "' (want leader|follower|none)");
            return false;
        }
    } else if (key == "group") {
        // Alias for instance= that reads naturally with role=.
        if (!parseUnsigned(value, spec.instance)) {
            error = strCat("bad group '", value, "'");
            return false;
        }
    } else if (key == "rate") {
        if (!parseNumber(value, spec.rate) || spec.rate < 0.0 ||
            spec.rate > 1.0) {
            error = strCat("bad rate '", value, "' (want [0,1])");
            return false;
        }
    } else if (key == "server") {
        if (!parseUnsigned(value, spec.server)) {
            error = strCat("bad server '", value, "'");
            return false;
        }
    } else if (key == "factor") {
        if (!parseNumber(value, spec.factor) || spec.factor < 1.0) {
            error = strCat("bad factor '", value, "' (want >= 1)");
            return false;
        }
    } else if (key == "a") {
        if (!parseRange(value, spec.groupA)) {
            error = strCat("bad server range '", value, "' for group a");
            return false;
        }
    } else if (key == "b") {
        if (!parseRange(value, spec.groupB)) {
            error = strCat("bad server range '", value, "' for group b");
            return false;
        }
    } else if (key == "loss") {
        if (!parseNumber(value, spec.loss) || spec.loss < 0.0 ||
            spec.loss > 1.0) {
            error = strCat("bad loss '", value, "' (want [0,1])");
            return false;
        }
    } else {
        error = strCat("unknown fault key '", key, "'");
        return false;
    }
    return true;
}

/** Kind-specific sanity checks once all keys are applied. */
bool
validateSpec(const FaultSpec &spec, std::string &error)
{
    if (spec.role != CrashRole::None && spec.kind != FaultKind::Crash) {
        error = "role= only applies to crash faults";
        return false;
    }
    switch (spec.kind) {
      case FaultKind::Crash:
        if (spec.service.empty()) {
            error = "crash fault needs service=";
            return false;
        }
        break;
      case FaultKind::ErrorRate:
        if (spec.service.empty()) {
            error = "errors fault needs service=";
            return false;
        }
        if (spec.duration == 0) {
            error = "errors fault needs dur=";
            return false;
        }
        break;
      case FaultKind::Slowdown:
        if (spec.duration == 0) {
            error = "slow fault needs dur=";
            return false;
        }
        break;
      case FaultKind::Partition:
        if (spec.duration == 0) {
            error = "partition fault needs dur=";
            return false;
        }
        if (spec.groupA.last == 0 && spec.groupA.first == 0 &&
            spec.groupB.last == 0 && spec.groupB.first == 0) {
            error = "partition fault needs a= and b= server ranges";
            return false;
        }
        break;
    }
    return true;
}

bool
specFromJsonObject(const json::Value &obj, FaultSpec &out,
                   std::string &error)
{
    if (!obj.isObject()) {
        error = "fault entry is not a JSON object";
        return false;
    }
    const json::Value *kind = obj.find("kind");
    if (!kind || !kind->isString()) {
        error = "fault entry missing string \"kind\"";
        return false;
    }
    FaultSpec spec;
    if (!kindFromName(kind->string, spec.kind)) {
        error = strCat("unknown fault kind '", kind->string, "'");
        return false;
    }
    for (const auto &kv : obj.object) {
        if (kv.first == "kind")
            continue;
        std::string value;
        if (!json::scalarToString(kv.second, value)) {
            error = strCat("fault key '", kv.first,
                           "' must be a string or number");
            return false;
        }
        if (!applyKey(spec, kv.first, value, error))
            return false;
    }
    if (!validateSpec(spec, error))
        return false;
    out = spec;
    return true;
}

} // namespace

bool
faultsFromJson(const json::Value &list, std::vector<FaultSpec> &out,
               std::string &error)
{
    if (!list.isArray()) {
        error = "fault schedule must be a JSON array";
        return false;
    }
    std::vector<FaultSpec> specs(list.array.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        if (!specFromJsonObject(list.array[i], specs[i], error)) {
            error = strCat("fault #", i, ": ", error);
            return false;
        }
    out = std::move(specs);
    return true;
}

bool
parseFaultFlag(const std::string &text, FaultSpec &out, std::string &error)
{
    const std::size_t at = text.find('@');
    if (at == std::string::npos) {
        error = strCat("fault spec '", text, "' missing 'kind@...'");
        return false;
    }
    FaultSpec spec;
    if (!kindFromName(text.substr(0, at), spec.kind)) {
        error = strCat("unknown fault kind '", text.substr(0, at), "'");
        return false;
    }
    std::size_t pos = at + 1;
    while (pos < text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string pair = text.substr(pos, comma - pos);
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0) {
            error = strCat("bad fault parameter '", pair,
                           "' (want key=value)");
            return false;
        }
        if (!applyKey(spec, pair.substr(0, eq), pair.substr(eq + 1),
                      error))
            return false;
        pos = comma + 1;
    }
    if (!validateSpec(spec, error))
        return false;
    out = spec;
    return true;
}

bool
parseFaultFile(const std::string &json_text, std::vector<FaultSpec> &out,
               std::string &error)
{
    json::Value root;
    if (!json::parse(json_text, root, error))
        return false;
    const json::Value *list = root.isObject() ? root.find("faults") : &root;
    if (list == nullptr) {
        error = "fault file object has no \"faults\" array";
        return false;
    }
    return faultsFromJson(*list, out, error);
}

} // namespace uqsim::fault
