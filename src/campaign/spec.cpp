#include "campaign/spec.h"

#include <set>
#include <utility>

#include "base/error.h"
#include "flow/knobs.h"
#include "obs/json_fields.h"

namespace secflow {
namespace {

/// Reads a knob list (flow/knobs.h) as optional members of the current
/// object: a job overrides only the knobs it names.
struct KnobReader {
  JsonReader& io;

  template <class T, class... Range>
  void knob(const char* key, T& v, const Range&...) {
    io.field(key, v, kOptional);
  }
  template <class E, std::size_t N>
  void choice(const char* key, E& v, const KnobChoice<E> (&choices)[N]) {
    std::string name;
    if (!io.field(key, name, kOptional)) return;
    for (const KnobChoice<E>& c : choices) {
      if (name == c.name) {
        v = c.value;
        return;
      }
    }
    std::string legal;
    for (const KnobChoice<E>& c : choices) {
      legal += std::string(legal.empty() ? "\"" : " or \"") + c.name + "\"";
    }
    io.check(false, std::string(key) + " must be " + legal + ", got '" +
                        name + "'");
  }
  template <class S>
  void group(const char* key, S& s) {
    io.object(key, [&] { knobs(*this, s); }, kOptional);
  }
};

void read_job(JsonReader& io, CampaignJob& job) {
  if (io.field("name", job.name, kOptional)) {
    io.check(!job.name.empty(), "name must not be empty");
  }

  io.object("circuit", [&] {
    CircuitSource& src = job.circuit;
    std::string builtin;
    int n_sources = 0;
    if (io.field("builtin", builtin, kOptional)) {
      ++n_sources;
      io.check(builtin == "des-dpa", [&] {
        return "unknown builtin circuit '" + builtin + "' (only \"des-dpa\")";
      });
    }
    if (io.field("hdl", src.text, kOptional)) {
      ++n_sources;
      src.kind = CircuitSourceKind::kHdlText;
    }
    if (io.field("file", src.text, kOptional)) {
      ++n_sources;
      src.kind = CircuitSourceKind::kHdlFile;
    }
    io.check(n_sources == 1, "needs exactly one of builtin/hdl/file");
  });

  std::string flow = flow_kind_name(job.flow);
  io.field("flow", flow);
  io.check(flow == "regular" || flow == "secure", [&] {
    return "flow must be \"regular\" or \"secure\", got '" + flow + "'";
  });
  if (flow == "regular") job.flow = FlowKind::kRegular;

  io.field("seed", job.dpa.seed, kOptional);
  job.has_dpa = io.object("dpa", [&] {
    io.field("n_measurements", job.dpa.n_measurements, kOptional);
    io.field("noise_ma", job.dpa.noise_ma, kOptional);
    io.field("select_bit", job.dpa.select_bit, kOptional);
    io.field("sbox", job.dpa.sbox, kOptional);
    io.field("key", job.dpa.key, kOptional);
  }, kOptional);

  io.object("options", [&] {
    KnobReader knob_io{io};
    knobs(knob_io, job.options);
    std::string stage;
    if (!io.field("stop_after", stage, kOptional)) return;
    for (int i = 0; i < kNumFlowStages; ++i) {
      if (stage == flow_stage_name(static_cast<FlowStage>(i))) {
        job.options.stop_after = static_cast<FlowStage>(i);
      }
    }
    io.check(job.options.stop_after.has_value(), [&] {
      return "unknown stop_after stage '" + stage + "'";
    });
  }, kOptional);
}

void validate_into(const CampaignSpec& spec,
                   std::vector<std::string>& errs) {
  if (spec.jobs.empty()) errs.push_back("campaign has no jobs");
  if (spec.threads < 0) errs.push_back("threads must be >= 0 (0 = auto)");

  std::set<std::string> seen;
  for (const CampaignJob& job : spec.jobs) {
    const auto require = [&](bool ok, const std::string& what) {
      if (!ok) errs.push_back("job '" + job.name + "': " + what);
    };
    const std::optional<FlowStage>& stop = job.options.stop_after;
    require(seen.insert(job.name).second, "duplicate job name");
    if (job.has_dpa) {
      const DesDpaSetup& d = job.dpa;
      require(d.n_measurements >= 1, "dpa.n_measurements must be >= 1");
      require(d.noise_ma >= 0.0, "dpa.noise_ma must be >= 0");
      // The Fig 4 attack: one bit of the PL nibble, a DES S-box, and a
      // 6-bit subkey (the hardware drives only the key's low 6 bits).
      require(d.select_bit >= 0 && d.select_bit <= 3,
              "dpa.select_bit must be in [0, 3]");
      require(d.sbox >= 1 && d.sbox <= 8, "dpa.sbox must be in [1, 8]");
      require(d.key <= 63, "dpa.key must be in [0, 63]");
      require(!stop || *stop == FlowStage::kExtraction,
              "dpa needs the extracted capacitance table — remove "
              "stop_after or run through extraction");
    }
    require(!stop || flow_runs_stage(job.flow, *stop),
            "stop_after names a secure-only stage but the flow is regular");
    for (const std::string& v : flow_options_violations(job.options)) {
      require(false, "options." + v);
    }
  }
}

}  // namespace

void CampaignSpec::validate() const {
  std::vector<std::string> errs;
  validate_into(*this, errs);
  throw_violations("campaign spec", errs);
}

CampaignSpec parse_campaign_spec(const std::string& json_text) {
  const JsonValue doc = json_parse(json_text);  // ParseError when malformed
  JsonReader io(doc, "campaign spec");
  CampaignSpec spec;
  std::string schema = kCampaignSpecSchema;
  io.field("schema", schema);
  io.check(schema == kCampaignSpecSchema, [&] {
    return "unknown schema '" + schema + "' (want " + kCampaignSpecSchema +
           ")";
  });
  io.field("name", spec.name, kOptional);
  io.field("cache_dir", spec.cache_dir, kOptional);
  io.field("threads", spec.threads, kOptional);
  io.array("jobs", spec.jobs, [&](CampaignJob& job) { read_job(io, job); });
  for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
    std::string& name = spec.jobs[i].name;
    if (name.empty()) name = "job" + std::to_string(i);
  }
  std::vector<std::string> errs;
  validate_into(spec, errs);
  io.finish(std::move(errs));
  return spec;
}

}  // namespace secflow
