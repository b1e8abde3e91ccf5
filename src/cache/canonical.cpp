#include "cache/canonical.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <vector>

#include "base/hash.hpp"

namespace paws::cache {

namespace {

// The canonical text is hashed on every cache probe, so rendering is on
// the hit path — plain string appends with to_chars instead of iostreams
// keep it an order of magnitude cheaper than the formatting would
// otherwise cost (the output bytes are identical).

void appendNum(std::string& out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

/// Canonical spelling of a watt quantity: exact milliwatts, or "inf" for
/// the unbounded Pmax sentinel.
void appendMw(std::string& out, Watts w) {
  if (w == Watts::max()) {
    out += "inf";
  } else {
    appendNum(out, w.milliwatts());
  }
}

}  // namespace

CanonicalForm canonicalize(const Problem& problem, CanonicalParts parts) {
  const bool wantStructural = parts == CanonicalParts::kFull;
  // Task names are unique (Problem::addTask and the parser reject
  // duplicates), so name order alone is a declaration-order-free total
  // order.
  std::vector<TaskId> tasks = problem.taskIds();
  std::sort(tasks.begin(), tasks.end(), [&](TaskId a, TaskId b) {
    return problem.task(a).name < problem.task(b).name;
  });

  std::vector<ResourceId> resources = problem.resourceIds();
  std::sort(resources.begin(), resources.end(),
            [&](ResourceId a, ResourceId b) {
              return problem.resource(a).name < problem.resource(b).name;
            });

  // Constraints by (kind, from-name, to-name, separation); the anchor
  // renders as the reserved spelling "@" (task names are identifiers or
  // quoted strings, never "@", so it cannot collide).
  const auto endpointName = [&](TaskId v) -> std::string_view {
    return v == kAnchorTask ? std::string_view("@")
                            : std::string_view(problem.task(v).name);
  };
  std::vector<const TimingConstraint*> constraints;
  constraints.reserve(problem.constraints().size());
  for (const TimingConstraint& c : problem.constraints()) {
    constraints.push_back(&c);
  }
  std::sort(constraints.begin(), constraints.end(),
            [&](const TimingConstraint* a, const TimingConstraint* b) {
              if (a->kind != b->kind) {
                return static_cast<int>(a->kind) < static_cast<int>(b->kind);
              }
              if (endpointName(a->from) != endpointName(b->from)) {
                return endpointName(a->from) < endpointName(b->from);
              }
              if (endpointName(a->to) != endpointName(b->to)) {
                return endpointName(a->to) < endpointName(b->to);
              }
              return a->separation < b->separation;
            });

  // Render twice from the same ordering: the full text, and the
  // structural skeleton (no limits, no per-task delay/power).
  std::string full;
  std::string structural;
  full.reserve(64 + 64 * (tasks.size() + resources.size() +
                          constraints.size()));
  if (wantStructural) structural.reserve(full.capacity());
  full += "paws-canonical 2\n";
  full += "problem ";
  full += problem.name();
  full += "\n";
  if (wantStructural) {
    structural += "paws-structural 2\n";
    structural += "problem ";
    structural += problem.name();
    structural += "\n";
  }
  full += "limits pmax=";
  appendMw(full, problem.maxPower());
  full += " pmin=";
  appendNum(full, problem.minPower().milliwatts());
  full += " background=";
  appendNum(full, problem.backgroundPower().milliwatts());
  full += "\n";
  // Battery/mode lines render only when declared, so every pre-existing
  // problem keeps its canonical text (and cache hash) bit-for-bit.
  if (problem.battery().has_value()) {
    const BatteryTraits& traits = *problem.battery();
    full += "battery";
    for (const RateBand& band : traits.bands) {
      full += " rate=";
      appendNum(full, band.threshold.milliwatts());
      full += ":";
      appendNum(full, band.factorPermille);
    }
    full += " recoverable=";
    appendNum(full, traits.recoverablePermille);
    full += " recovery=";
    appendNum(full, traits.recoveryRate.milliwatts());
    full += "\n";
  }
  for (const SystemMode& mode : problem.modes()) {
    full += "mode ";
    full += mode.name;
    full += " ceiling=";
    appendNum(full, static_cast<int>(mode.ceiling));
    full += " pmax=";
    appendNum(full, mode.pmaxPct);
    full += " pmin=";
    appendNum(full, mode.pminPct);
    full += "\n";
  }
  for (ResourceId r : resources) {
    full += "resource ";
    full += problem.resource(r).name;
    full += "\n";
    if (wantStructural) {
      structural += "resource ";
      structural += problem.resource(r).name;
      structural += "\n";
    }
  }
  for (TaskId v : tasks) {
    const Task& t = problem.task(v);
    const std::string& resourceName = problem.resource(t.resource).name;
    full += "task ";
    full += t.name;
    full += " resource=";
    full += resourceName;
    full += " delay=";
    appendNum(full, t.delay.ticks());
    full += " power=";
    appendNum(full, t.power.milliwatts());
    full += " crit=";
    appendNum(full, static_cast<int>(t.criticality));
    full += "\n";
    if (wantStructural) {
      structural += "task ";
      structural += t.name;
      structural += " resource=";
      structural += resourceName;
      structural += " crit=";
      appendNum(structural, static_cast<int>(t.criticality));
      structural += "\n";
    }
  }
  for (const TimingConstraint* c : constraints) {
    const char* kw =
        c->kind == TimingConstraint::Kind::kMinSeparation ? "min" : "max";
    const std::size_t targets = wantStructural ? 2 : 1;
    std::string* const outs[] = {&full, &structural};
    for (std::size_t i = 0; i < targets; ++i) {
      std::string* out = outs[i];
      *out += kw;
      *out += " ";
      *out += endpointName(c->from);
      *out += " -> ";
      *out += endpointName(c->to);
      *out += " ";
      appendNum(*out, c->separation.ticks());
      *out += "\n";
    }
  }

  CanonicalForm form;
  form.text = std::move(full);
  form.hash = fnv1a64(form.text);
  if (wantStructural) form.structuralHash = fnv1a64(structural);
  form.taskOrder = std::move(tasks);
  return form;
}

std::uint64_t optionsFingerprint(std::string_view scheduler,
                                 std::uint32_t trials) {
  std::uint64_t h = fnv1a64Append(kFnv1a64OffsetBasis, "scheduler=");
  h = fnv1a64Append(h, scheduler);
  if (scheduler == "pipeline") {
    h = fnv1a64Append(h, ";trials=");
    char buf[16];
    std::snprintf(buf, sizeof buf, "%u", trials);
    h = fnv1a64Append(h, buf);
  }
  return h;
}

}  // namespace paws::cache
