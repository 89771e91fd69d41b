#include "compiler/xar_compiler.hpp"

#include <utility>

#include "common/assert.hpp"
#include "compiler/validate.hpp"

namespace xartrek::compiler {

const CompiledApp* CompiledSuite::find_app(const std::string& name) const {
  for (const auto& a : apps) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

const fpga::XclbinImage* CompiledSuite::xclbin_with(
    const std::string& kernel) const {
  for (const auto& image : xclbins) {
    if (image.contains_kernel(kernel)) return &image;
  }
  return nullptr;
}

XarCompiler::XarCompiler(XarCompilerConfig cfg) : cfg_(std::move(cfg)) {}

CompiledSuite XarCompiler::compile(
    const ProfileSpec& spec, const std::map<std::string, AppIr>& irs,
    const std::map<std::string, KernelProfile>& kernel_profiles) const {
  CompiledSuite suite;

  const Instrumenter instrumenter;
  const MultiIsaBuilder fat_builder(cfg_.multi_isa);
  MultiIsaBuildOptions x86_opts = cfg_.multi_isa;
  x86_opts.targets = {isa::IsaKind::kX86_64};
  const MultiIsaBuilder x86_builder(x86_opts);
  const XoGenerator xo_gen(cfg_.hls);

  std::vector<hls::XoFile> all_xos;
  for (const auto& app_profile : spec.applications) {
    auto ir_it = irs.find(app_profile.name);
    if (ir_it == irs.end()) {
      throw Error("compile: no IR provided for application `" +
                  app_profile.name + "`");
    }
    validate_ir_or_throw(ir_it->second);

    InstrumentedApp instrumented =
        instrumenter.instrument(ir_it->second, app_profile);  // B
    // Step C operates on the *instrumented* IR (the dispatch stubs and
    // their call sites are migration points with metadata).
    popcorn::MultiIsaBinary binary = fat_builder.build(instrumented.ir);
    CompiledApp app{
        app_profile.name,
        std::move(instrumented),
        std::move(binary),
        x86_builder.build(ir_it->second),               // baseline
        xo_gen.generate(app_profile, kernel_profiles),  // D
    };
    for (const auto& xo : app.xos) all_xos.push_back(xo);
    suite.apps.push_back(std::move(app));
  }

  // E: one shared partitioning across the whole suite -- kernels from
  // different tenants share images, which is the multi-tenant premise.
  const hls::XclbinPartitioner partitioner(cfg_.platform);
  suite.xclbin_specs = partitioner.partition(all_xos);

  // F: build loadable images.
  const hls::XclbinBuilder builder(cfg_.platform);
  suite.xclbins.reserve(suite.xclbin_specs.size());
  for (const auto& spec_e : suite.xclbin_specs) {
    suite.xclbins.push_back(builder.build(spec_e));
  }
  return suite;
}

}  // namespace xartrek::compiler
