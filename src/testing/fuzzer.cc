#include "testing/fuzzer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/string_util.h"
#include "io/columnar.h"
#include "testing/rng.h"

namespace lafp::testing {

namespace {

std::string DefaultDataDir() {
  std::error_code ec;
  auto base = std::filesystem::temp_directory_path(ec);
  if (ec) base = ".";
  return (base / "lafp_fuzz").string();
}

/// The metastore LaFP configs take their §3.6 CSV hints from: beside the
/// case's tables and emptied first, as tables are rewritten under the
/// same names case after case.
meta::MetaStore FreshMetaStore(const std::string& data_dir) {
  const std::string dir = data_dir + "/metastore";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return meta::MetaStore(dir);
}

std::string FirstLine(const std::string& text) {
  auto nl = text.find('\n');
  return nl == std::string::npos ? text : text.substr(0, nl);
}

}  // namespace

Result<std::string> MaterializeCase(const ShrinkCase& c,
                                    const std::string& dir) {
  std::vector<std::pair<std::string, std::string>> paths;
  for (const auto& table : c.tables) {
    auto path = WriteTable(table, dir);
    if (!path.ok()) return path.status();
    paths.emplace_back(table.name, *path);
  }
  return SubstitutePaths(c.source, paths);
}

CaseResult CheckCase(const ShrinkCase& c,
                     const std::vector<OracleConfig>& configs,
                     const std::string& data_dir) {
  CaseResult result;
  std::vector<std::pair<std::string, std::string>> csv_paths;
  for (const auto& table : c.tables) {
    auto path = WriteTable(table, data_dir);
    if (!path.ok()) {
      result.verdict = CaseVerdict::kReferenceFailed;
      result.detail = path.status().ToString();
      return result;
    }
    csv_paths.emplace_back(table.name, *path);
  }
  const std::string source = SubstitutePaths(c.source, csv_paths);
  RunOutcome reference = ExecuteUnderConfig(source, ReferenceConfig());
  if (!reference.status.ok()) {
    result.verdict = CaseVerdict::kReferenceFailed;
    result.detail = reference.status.ToString();
    return result;
  }
  meta::MetaStore metastore = FreshMetaStore(data_dir);
  // LFC configs replay the same program against native-columnar
  // conversions of the base tables (converted lazily, once per case).
  // Tiny chunks force multi-chunk column assembly and give the zone-prune
  // pass real chunk boundaries to skip.
  std::string lfc_source;
  bool lfc_converted = false;
  for (const auto& config : configs) {
    const std::string* src = &source;
    if (config.lfc) {
      if (!lfc_converted) {
        std::vector<std::pair<std::string, std::string>> lfc_paths;
        for (const auto& [name, csv] : csv_paths) {
          const std::string lfc = csv + ".lfc";
          io::LfcWriteOptions write_options;
          write_options.chunk_rows = 31;
          auto converted = io::ConvertCsvToLfc(csv, lfc, io::CsvReadOptions{},
                                               write_options, nullptr);
          if (!converted.ok()) {
            result.verdict = CaseVerdict::kDiverged;
            result.config_name = config.Name();
            result.detail =
                "lfc conversion failed for " + csv + ": " +
                converted.ToString();
            return result;
          }
          lfc_paths.emplace_back(name, lfc);
        }
        lfc_source = SubstitutePaths(c.source, lfc_paths);
        lfc_converted = true;
      }
      src = &lfc_source;
    }
    RunOutcome run = ExecuteUnderConfig(*src, config, &metastore);
    auto divergence = CompareOutcomes(reference, run, config);
    if (divergence.has_value()) {
      result.verdict = CaseVerdict::kDiverged;
      result.config_name = config.Name();
      result.detail = *divergence;
      return result;
    }
  }
  return result;
}

FuzzStats RunFuzz(const FuzzOptions& options) {
  FuzzStats stats;
  const std::string data_dir =
      options.data_dir.empty() ? DefaultDataDir() : options.data_dir;
  SplitMix seeds(options.seed);
  const bool single = options.replay || !options.corpus_file.empty();
  const int iters = single ? 1 : options.iters;
  for (int i = 0; i < iters; ++i) {
    const uint64_t program_seed =
        options.replay ? options.replay_seed : seeds.Next();
    ShrinkCase original;
    if (!options.corpus_file.empty()) {
      auto from_file = ReadCorpusFile(options.corpus_file);
      if (!from_file.ok()) {
        if (options.log != nullptr) {
          *options.log << "[fuzz] " << from_file.status().ToString() << "\n";
        }
        return stats;
      }
      original = *std::move(from_file);
    } else {
      GeneratedProgram program =
          GenerateProgram(program_seed, options.progen);
      original = ShrinkCase{program.source, program.tables};
    }
    if (single && options.log != nullptr) {
      *options.log << "[fuzz] replaying "
                   << (options.corpus_file.empty()
                           ? "seed " + std::to_string(program_seed)
                           : options.corpus_file)
                   << ":\n";
      for (const auto& t : original.tables) {
        *options.log << t.ToDirective() << "\n";
      }
      *options.log << original.source << "\n";
    }
    std::vector<OracleConfig> configs =
        SampleConfigs(program_seed ^ 0x9e3779b97f4a7c15ull, options.matrix);
    if (options.faults) {
      const int n = std::max(2, options.matrix / 2);
      for (auto& c : FaultConfigs(program_seed, n)) {
        configs.push_back(std::move(c));
      }
    }
    if (options.cache) {
      const int n = std::max(2, options.matrix / 2);
      for (auto& c : CacheConfigs(program_seed, n)) {
        configs.push_back(std::move(c));
      }
    }
    if (options.lfc) {
      const int n = std::max(2, options.matrix / 2);
      for (auto& c : LfcConfigs(program_seed, n)) {
        configs.push_back(std::move(c));
      }
    }
    if (options.shards) {
      const int n = std::max(2, options.matrix / 2);
      for (auto& c : ShardConfigs(program_seed, n)) {
        configs.push_back(std::move(c));
      }
    }
    if (single) {
      // Replay is a debugging aid: widen the matrix and report every
      // config's verdict instead of stopping at the first divergence.
      for (const auto& c : RegressionConfigs()) configs.push_back(c);
      auto source = MaterializeCase(original, data_dir);
      meta::MetaStore metastore = FreshMetaStore(data_dir);
      if (source.ok()) {
        RunOutcome reference = ExecuteUnderConfig(*source, ReferenceConfig());
        if (reference.status.ok() && options.log != nullptr) {
          *options.log << "[replay] reference output:\n" << reference.output;
          for (const auto& config : configs) {
            // LFC configs run one at a time here so conversion failures
            // surface per-config; CheckCase below converts once per case.
            std::string verdict;
            RunOutcome run;
            if (config.lfc) {
              CaseResult one = CheckCase(original, {config}, data_dir);
              verdict = one.verdict == CaseVerdict::kOk
                            ? "ok"
                            : FirstLine(one.detail);
            } else {
              run = ExecuteUnderConfig(*source, config, &metastore);
              auto diff = CompareOutcomes(reference, run, config);
              verdict = diff.has_value() ? FirstLine(*diff) : "ok";
            }
            *options.log << "[replay] " << config.Name() << ": " << verdict
                         << "\n";
            if (!config.lfc && verdict != "ok" && run.status.ok() &&
                run.output != reference.output) {
              *options.log << run.output;
            }
          }
        }
      }
    }
    CaseResult check = CheckCase(original, configs, data_dir);
    ++stats.iterations;

    if (check.verdict == CaseVerdict::kReferenceFailed) {
      ++stats.reference_failures;
      if (options.log != nullptr) {
        *options.log << "[fuzz] iter " << i << " seed " << program_seed
                     << " reference failed: " << FirstLine(check.detail)
                     << "\n";
      }
      continue;
    }
    if (check.verdict == CaseVerdict::kOk) {
      if (options.log != nullptr && (i + 1) % 50 == 0) {
        *options.log << "[fuzz] " << (i + 1) << "/" << options.iters
                     << " programs checked, "
                     << stats.divergences.size() << " divergences\n";
      }
      continue;
    }

    FuzzDivergence divergence;
    divergence.program_seed = program_seed;
    divergence.config_name = check.config_name;
    divergence.detail = check.detail;
    divergence.repro = original;
    if (options.log != nullptr) {
      *options.log << "[fuzz] DIVERGENCE at iter " << i << " seed "
                   << program_seed << " under " << check.config_name << "\n"
                   << check.detail << "\n";
    }

    if (options.shrink) {
      // Shrink against the diverging config only. Using the whole matrix
      // lets the minimizer wander into a *different* divergence class —
      // e.g. deleting the checksum epilogue exposes the intended §3.1
      // head()-print column pruning — and report that instead.
      std::vector<OracleConfig> shrink_configs;
      for (const auto& c : configs) {
        if (c.Name() == check.config_name) shrink_configs.push_back(c);
      }
      const std::string shrink_dir = data_dir + "/shrink";
      auto reproduces = [&](const ShrinkCase& candidate) {
        return CheckCase(candidate, shrink_configs, shrink_dir).verdict ==
               CaseVerdict::kDiverged;
      };
      divergence.repro =
          Shrink(original, reproduces, options.shrink_budget);
      // Re-derive the divergence text for the minimized case.
      CaseResult shrunk =
          CheckCase(divergence.repro, shrink_configs, shrink_dir);
      if (shrunk.verdict == CaseVerdict::kDiverged) {
        divergence.config_name = shrunk.config_name;
        divergence.detail = shrunk.detail;
      }
      if (options.log != nullptr) {
        *options.log << "[fuzz] shrunk repro (" << divergence.config_name
                     << "):\n" << divergence.repro.source << "\n";
      }
    }

    if (!options.corpus_dir.empty()) {
      std::string stem = "shrunk_seed" + std::to_string(program_seed);
      std::string comment =
          "divergence under " + divergence.config_name + ": " +
          FirstLine(divergence.detail);
      auto written = WriteCorpusFile(options.corpus_dir, stem,
                                     divergence.repro, comment);
      if (written.ok()) {
        divergence.corpus_path = *written;
        if (options.log != nullptr) {
          *options.log << "[fuzz] repro written to " << *written << "\n";
        }
      } else if (options.log != nullptr) {
        *options.log << "[fuzz] corpus write failed: "
                     << written.status().ToString() << "\n";
      }
    }
    stats.divergences.push_back(std::move(divergence));
  }
  return stats;
}

Result<std::string> WriteCorpusFile(const std::string& dir,
                                    const std::string& stem,
                                    const ShrinkCase& c,
                                    const std::string& comment) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::string path = dir + "/" + stem + ".pds";
  std::ofstream out(path);
  if (!out.is_open()) return Status::IOError("cannot create " + path);
  if (!comment.empty()) out << "# " << comment << "\n";
  for (const auto& table : c.tables) out << table.ToDirective() << "\n";
  out << c.source;
  if (!c.source.empty() && c.source.back() != '\n') out << "\n";
  out.flush();
  if (!out.good()) return Status::IOError("write failed: " + path);
  return path;
}

Result<ShrinkCase> ReadCorpusFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IOError("cannot open " + path);
  ShrinkCase c;
  std::string line;
  std::ostringstream source;
  while (std::getline(in, line)) {
    if (line.rfind("#!", 0) == 0) {
      auto spec = TableSpec::FromDirective(line);
      if (!spec.ok()) return spec.status();
      c.tables.push_back(*spec);
    } else if (line.rfind("#", 0) == 0) {
      continue;  // comment
    } else {
      source << line << "\n";
    }
  }
  c.source = source.str();
  return c;
}

std::vector<std::string> ListCorpus(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return paths;
  for (const auto& entry : it) {
    if (entry.path().extension() == ".pds") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace lafp::testing
