#include "campaign/spec.h"

#include <optional>
#include <set>
#include <utility>

#include "base/error.h"
#include "obs/json_fields.h"

namespace secflow {
namespace {

/// Violation collector: parsing keeps going after an error so the final
/// Error lists everything wrong with the spec, not just the first hit.
class Violations {
 public:
  void add(std::string msg) { msgs_.push_back(std::move(msg)); }

  void throw_if_any() const {
    if (msgs_.empty()) return;
    if (msgs_.size() == 1) throw Error("campaign spec: " + msgs_[0]);
    std::string msg = "campaign spec: " + std::to_string(msgs_.size()) +
                      " violations:";
    for (const std::string& m : msgs_) msg += "\n  - " + m;
    throw Error(msg);
  }

 private:
  std::vector<std::string> msgs_;
};

/// Reject members outside the schema — a typo like "flowkind" must not
/// silently parse as "use every default".
void check_members(const JsonValue& obj, const char* where,
                   std::initializer_list<const char*> allowed,
                   Violations& errs) {
  for (const auto& [key, value] : obj.members()) {
    bool known = false;
    for (const char* a : allowed) known = known || key == a;
    if (!known) {
      errs.add(std::string(where) + ": unknown member '" + key + "'");
    }
  }
}

const JsonValue* want(const JsonValue& obj, const char* key,
                      JsonValue::Kind kind, const char* where,
                      Violations& errs) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return nullptr;
  if (v->kind() != kind) {
    errs.add(std::string(where) + ": member '" + key +
             "' has the wrong type");
    return nullptr;
  }
  return v;
}

/// Overwrite `out` when the member exists and is a number (error when it
/// exists with another type).
void opt_number(const JsonValue& obj, const char* key, const char* where,
                Violations& errs, double& out) {
  if (const JsonValue* v = want(obj, key, JsonValue::Kind::kNumber, where,
                                errs)) {
    out = v->as_number();
  }
}

/// Overwrite `out` when the member exists and is an integer that fits in
/// T.  A fraction or an out-of-range value is a violation naming the
/// member, never a silent (or undefined) conversion.
template <typename T>
void opt_integer(const JsonValue& obj, const char* key, const char* where,
                 Violations& errs, T& out) {
  const JsonValue* v = want(obj, key, JsonValue::Kind::kNumber, where, errs);
  if (v == nullptr) return;
  if (const std::optional<T> n = json_integer<T>(v->as_number())) {
    out = *n;
  } else {
    errs.add(std::string(where) + ": member '" + key +
             "' must be an integer in " + json_integer_range<T>());
  }
}

void opt_bool(const JsonValue& obj, const char* key, const char* where,
              Violations& errs, bool& out) {
  if (const JsonValue* v = want(obj, key, JsonValue::Kind::kBool, where,
                                errs)) {
    out = v->as_bool();
  }
}

std::optional<FlowStage> parse_stage_name(const std::string& name) {
  for (int i = 0; i < kNumFlowStages; ++i) {
    const FlowStage s = static_cast<FlowStage>(i);
    if (name == flow_stage_name(s)) return s;
  }
  return std::nullopt;
}

CircuitSource parse_circuit(const JsonValue& v, const char* where,
                            Violations& errs) {
  CircuitSource src;
  if (!v.is_object()) {
    errs.add(std::string(where) + ": 'circuit' must be an object");
    return src;
  }
  check_members(v, where, {"builtin", "hdl", "file"}, errs);
  int n_sources = 0;
  if (const JsonValue* b = want(v, "builtin", JsonValue::Kind::kString,
                                where, errs)) {
    ++n_sources;
    src.kind = CircuitSourceKind::kBuiltinDesDpa;
    if (b->as_string() != "des-dpa") {
      errs.add(std::string(where) + ": unknown builtin circuit '" +
               b->as_string() + "' (only \"des-dpa\")");
    }
  }
  if (const JsonValue* h = want(v, "hdl", JsonValue::Kind::kString, where,
                                errs)) {
    ++n_sources;
    src.kind = CircuitSourceKind::kHdlText;
    src.text = h->as_string();
  }
  if (const JsonValue* f = want(v, "file", JsonValue::Kind::kString, where,
                                errs)) {
    ++n_sources;
    src.kind = CircuitSourceKind::kHdlFile;
    src.text = f->as_string();
  }
  if (n_sources != 1) {
    errs.add(std::string(where) +
             ": 'circuit' needs exactly one of builtin/hdl/file");
  }
  return src;
}

void parse_options(const JsonValue& v, const std::string& where,
                   Violations& errs, FlowOptions& o) {
  if (!v.is_object()) {
    errs.add(where + ": 'options' must be an object");
    return;
  }
  check_members(v, where.c_str(),
                {"route_mode", "shielded_pairs", "stop_after", "place",
                 "route", "extract"},
                errs);
  if (const JsonValue* rm = want(v, "route_mode", JsonValue::Kind::kString,
                                 where.c_str(), errs)) {
    if (rm->as_string() == "detailed") {
      o.route_mode = RouteMode::kDetailed;
    } else if (rm->as_string() == "quick") {
      o.route_mode = RouteMode::kQuickLShaped;
    } else {
      errs.add(where + ": route_mode must be \"detailed\" or \"quick\", got '" +
               rm->as_string() + "'");
    }
  }
  opt_bool(v, "shielded_pairs", where.c_str(), errs, o.shielded_pairs);
  if (const JsonValue* sa = want(v, "stop_after", JsonValue::Kind::kString,
                                 where.c_str(), errs)) {
    const auto stage = parse_stage_name(sa->as_string());
    if (stage) {
      o.stop_after = *stage;
    } else {
      errs.add(where + ": unknown stop_after stage '" + sa->as_string() +
               "'");
    }
  }
  if (const JsonValue* p = want(v, "place", JsonValue::Kind::kObject,
                                where.c_str(), errs)) {
    const std::string w = where + ".place";
    check_members(*p, w.c_str(),
                  {"aspect_ratio", "fill_factor", "sa_moves_per_instance",
                   "sa_batch", "margin_tracks", "seed"},
                  errs);
    opt_number(*p, "aspect_ratio", w.c_str(), errs, o.place.aspect_ratio);
    opt_number(*p, "fill_factor", w.c_str(), errs, o.place.fill_factor);
    opt_integer(*p, "sa_moves_per_instance", w.c_str(), errs,
                o.place.sa_moves_per_instance);
    opt_integer(*p, "sa_batch", w.c_str(), errs, o.place.sa_batch);
    opt_integer(*p, "margin_tracks", w.c_str(), errs, o.place.margin_tracks);
    opt_integer(*p, "seed", w.c_str(), errs, o.place.seed);
  }
  if (const JsonValue* r = want(v, "route", JsonValue::Kind::kObject,
                                where.c_str(), errs)) {
    const std::string w = where + ".route";
    check_members(*r, w.c_str(),
                  {"via_cost", "max_iterations", "incremental",
                   "window_margin", "window_escalation"},
                  errs);
    opt_integer(*r, "via_cost", w.c_str(), errs, o.route.via_cost);
    opt_integer(*r, "max_iterations", w.c_str(), errs, o.route.max_iterations);
    opt_bool(*r, "incremental", w.c_str(), errs, o.route.incremental);
    opt_integer(*r, "window_margin", w.c_str(), errs, o.route.window_margin);
    opt_integer(*r, "window_escalation", w.c_str(), errs,
                o.route.window_escalation);
  }
  if (const JsonValue* e = want(v, "extract", JsonValue::Kind::kObject,
                                where.c_str(), errs)) {
    const std::string w = where + ".extract";
    check_members(*e, w.c_str(),
                  {"coupling_max_sep_um", "variation_sigma", "seed"}, errs);
    opt_number(*e, "coupling_max_sep_um", w.c_str(), errs,
               o.extract.coupling_max_sep_um);
    opt_number(*e, "variation_sigma", w.c_str(), errs,
               o.extract.variation_sigma);
    opt_integer(*e, "seed", w.c_str(), errs, o.extract.seed);
  }
}

CampaignJob parse_job(const JsonValue& v, std::size_t index,
                      Violations& errs) {
  CampaignJob job;
  job.name = "job" + std::to_string(index);
  const std::string where = "jobs[" + std::to_string(index) + "]";
  if (!v.is_object()) {
    errs.add(where + ": job entry must be an object");
    return job;
  }
  check_members(v, where.c_str(),
                {"name", "circuit", "flow", "seed", "dpa", "options"}, errs);

  if (const JsonValue* n = want(v, "name", JsonValue::Kind::kString,
                                where.c_str(), errs)) {
    if (n->as_string().empty()) {
      errs.add(where + ": name must not be empty");
    } else {
      job.name = n->as_string();
    }
  }

  if (const JsonValue* c = v.find("circuit")) {
    job.circuit = parse_circuit(*c, where.c_str(), errs);
  } else {
    errs.add(where + ": missing required member 'circuit'");
  }

  if (const JsonValue* f = want(v, "flow", JsonValue::Kind::kString,
                                where.c_str(), errs)) {
    if (f->as_string() == "regular") {
      job.flow = FlowKind::kRegular;
    } else if (f->as_string() == "secure") {
      job.flow = FlowKind::kSecure;
    } else {
      errs.add(where + ": flow must be \"regular\" or \"secure\", got '" +
               f->as_string() + "'");
    }
  } else if (v.find("flow") == nullptr) {
    errs.add(where + ": missing required member 'flow'");
  }

  opt_integer(v, "seed", where.c_str(), errs, job.seed);

  if (const JsonValue* d = want(v, "dpa", JsonValue::Kind::kObject,
                                where.c_str(), errs)) {
    job.has_dpa = true;
    const std::string w = where + ".dpa";
    check_members(*d, w.c_str(),
                  {"n_measurements", "noise_ma", "select_bit", "sbox", "key"},
                  errs);
    opt_integer(*d, "n_measurements", w.c_str(), errs, job.dpa.n_measurements);
    opt_number(*d, "noise_ma", w.c_str(), errs, job.dpa.noise_ma);
    opt_integer(*d, "select_bit", w.c_str(), errs, job.dpa.select_bit);
    opt_integer(*d, "sbox", w.c_str(), errs, job.dpa.sbox);
    opt_integer(*d, "key", w.c_str(), errs, job.dpa.key);
  }

  if (const JsonValue* o = v.find("options")) {
    parse_options(*o, where + ".options", errs, job.options);
  }
  return job;
}

void validate_into(const CampaignSpec& spec, Violations& errs) {
  if (spec.jobs.empty()) errs.add("campaign has no jobs");
  if (spec.threads < 0) errs.add("threads must be >= 0 (0 = auto)");

  std::set<std::string> seen;
  for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
    const CampaignJob& job = spec.jobs[i];
    const std::string where = "job '" + job.name + "'";
    if (!seen.insert(job.name).second) {
      errs.add(where + ": duplicate job name");
    }
    if (job.has_dpa) {
      if (job.dpa.n_measurements < 1) {
        errs.add(where + ": dpa.n_measurements must be >= 1");
      }
      if (job.dpa.noise_ma < 0.0) {
        errs.add(where + ": dpa.noise_ma must be >= 0");
      }
      // The Fig 4 attack: one bit of the PL nibble, a DES S-box, and a
      // 6-bit subkey (the hardware drives only the key's low 6 bits).
      if (job.dpa.select_bit < 0 || job.dpa.select_bit > 3) {
        errs.add(where + ": dpa.select_bit must be in [0, 3]");
      }
      if (job.dpa.sbox < 1 || job.dpa.sbox > 8) {
        errs.add(where + ": dpa.sbox must be in [1, 8]");
      }
      if (job.dpa.key > 63) {
        errs.add(where + ": dpa.key must be in [0, 63]");
      }
      if (job.options.stop_after &&
          *job.options.stop_after != FlowStage::kExtraction) {
        errs.add(where + ": dpa needs the extracted capacitance table — "
                 "remove stop_after or run through extraction");
      }
    }
    if (job.options.stop_after &&
        !flow_runs_stage(job.flow, *job.options.stop_after)) {
      errs.add(where + ": stop_after names a secure-only stage but the "
               "flow is regular");
    }
    try {
      job.options.validate();
    } catch (const Error& e) {
      errs.add(where + ": " + e.what());
    }
  }
}

}  // namespace

void CampaignSpec::validate() const {
  Violations errs;
  validate_into(*this, errs);
  errs.throw_if_any();
}

CampaignSpec parse_campaign_spec(const std::string& json_text) {
  const JsonValue doc = json_parse(json_text);  // ParseError when malformed

  Violations errs;
  CampaignSpec spec;
  if (!doc.is_object()) {
    errs.add("document is not an object");
    errs.throw_if_any();
  }
  check_members(doc, "document",
                {"schema", "name", "cache_dir", "threads", "jobs"}, errs);

  if (const JsonValue* s = want(doc, "schema", JsonValue::Kind::kString,
                                "document", errs)) {
    if (s->as_string() != kCampaignSpecSchema) {
      errs.add("unknown schema '" + s->as_string() + "' (want " +
               kCampaignSpecSchema + ")");
    }
  } else if (doc.find("schema") == nullptr) {
    errs.add("missing required member 'schema'");
  }

  if (const JsonValue* n = want(doc, "name", JsonValue::Kind::kString,
                                "document", errs)) {
    spec.name = n->as_string();
  }
  if (const JsonValue* c = want(doc, "cache_dir", JsonValue::Kind::kString,
                                "document", errs)) {
    spec.cache_dir = c->as_string();
  }
  opt_integer(doc, "threads", "document", errs, spec.threads);

  if (const JsonValue* jobs = want(doc, "jobs", JsonValue::Kind::kArray,
                                   "document", errs)) {
    for (std::size_t i = 0; i < jobs->items().size(); ++i) {
      spec.jobs.push_back(parse_job(jobs->items()[i], i, errs));
    }
  } else if (doc.find("jobs") == nullptr) {
    errs.add("missing required member 'jobs'");
  }

  validate_into(spec, errs);
  errs.throw_if_any();
  return spec;
}

}  // namespace secflow
