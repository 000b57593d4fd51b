#include "cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace st::cli {

namespace {

/// "htm|addronly|...": every --scheme spelling.
std::string scheme_flags() {
  std::string all;
  for (const runtime::SchemeName& s : runtime::kSchemeNames)
    all += (all.empty() ? "" : "|") + std::string(s.flag);
  return all;
}

template <class Data>
bool load_with(const char* path, Data* out,
               bool (*read)(std::FILE*, Data*, std::string*)) {
  std::string err = "cannot open";
  std::FILE* f = std::fopen(path, "rb");
  const bool ok = f != nullptr && read(f, out, &err);
  if (f != nullptr) std::fclose(f);
  if (!ok) std::fprintf(stderr, "stagtm: %s: %s\n", path, err.c_str());
  return ok;
}

}  // namespace

void usage() {
  std::fprintf(
      stderr,
      "usage: stagtm list\n"
      "       stagtm run <workload> [run flags]\n"
      "       stagtm check <workload> [run flags] [--break-subscription]\n"
      "                    [--mode jitter|pct] [--seeds N] [--seed0 S]\n"
      "                    [--jitter C] [--period N] [--depth D]\n"
      "                    [--window LO:HI] [--reduce] [--trace-out PATH]\n"
      "       stagtm trace [--top N] [--prof P] <trace-file>\n"
      "       stagtm prof [--top N] [--window W] <prof-file>\n"
      "       stagtm prof --diff <prof-A> <prof-B> [--top N]\n"
      "run flags: [--scheme S] [--threads N] [--scale F] [--seed S] [--lazy]\n"
      "           [--max-retries N] [--pc-tag-bits B] [--locks N]\n"
      "           [--timeout C] [--history N] [--pc-thr N] [--addr-thr N]\n"
      "           [--prom-thr N]\n"
      "schemes: %s\n",
      scheme_flags().c_str());
  std::exit(2);
}

void Flags::toggle(const char* name, bool* out) {
  flags_.push_back({name, false, [out](const char*) { *out = true; }});
}

void Flags::value(const char* name, Setter set) {
  flags_.push_back({name, true, std::move(set)});
}

void Flags::text(const char* name, std::string* out) {
  value(name, [out](const char* v) { *out = v; });
}

std::vector<const char*> Flags::parse(int argc, char** argv) const {
  std::vector<const char*> positionals;
  for (int i = 0; i < argc; ++i) {
    const char* a = argv[i];
    if (a[0] != '-') {
      positionals.push_back(a);
      continue;
    }
    const Flag* flag = nullptr;
    for (const Flag& f : flags_)
      if (std::strcmp(a, f.name) == 0) flag = &f;
    if (flag == nullptr) {
      std::fprintf(stderr, "unknown flag %s\n", a);
      usage();
    }
    if (!flag->takes_value) {
      flag->set(nullptr);
    } else if (i + 1 < argc) {
      flag->set(argv[++i]);
    } else {
      std::fprintf(stderr, "%s needs a value\n", a);
      usage();
    }
  }
  return positionals;
}

void run_flags(Flags& f, workloads::RunOptions* o) {
  o->ops_scale = 0.25;
  f.value("--scheme", [o](const char* v) {
    for (const runtime::SchemeName& s : runtime::kSchemeNames)
      if (std::strcmp(v, s.flag) == 0) {
        o->scheme = s.scheme;
        return;
      }
    env_fail("--scheme", v, ("one of " + scheme_flags()).c_str());
  });
  f.integer("--threads", &o->threads, 1, sim::kMaxCores);
  f.value("--scale", [o](const char* v) {
    o->ops_scale = parse_positive_double("--scale", v);
  });
  f.integer("--seed", &o->seed, 0, ~std::uint64_t{0});
  f.toggle("--lazy", &o->lazy_htm);
  f.integer("--max-retries", &o->max_retries, 0, 100'000);
  f.integer("--pc-tag-bits", &o->pc_tag_bits, 1, 16);
  f.integer("--locks", &o->num_advisory_locks, 1, 1u << 20);
  f.integer("--timeout", &o->lock_timeout, 0, 1'000'000'000);
  f.integer("--history", &o->history_len, 1, 1024);
  f.integer("--pc-thr", &o->policy.pc_thr, 0, 1'000'000);
  f.integer("--addr-thr", &o->policy.addr_thr, 0, 1'000'000);
  f.integer("--prom-thr", &o->policy.prom_thr, 0, 1'000'000);
}

void top_flag(Flags& f, unsigned* top) {
  f.integer("--top", top, 1, 10'000);
}

void require_workload(const std::string& name) {
  if (workloads::make_workload(name)) return;
  std::fprintf(stderr, "unknown workload '%s' (try: stagtm list)\n",
               name.c_str());
  std::exit(2);
}

bool load(const char* path, obs::TraceData* out) {
  return load_with(path, out, obs::read_binary_trace);
}

bool load(const char* path, obs::ProvData* out) {
  return load_with(path, out, obs::read_binary_prov);
}

std::string site_name(std::uint32_t alloc_site) {
  if (alloc_site == 0) return "(static)";
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", alloc_site);
  return buf;
}

}  // namespace st::cli
