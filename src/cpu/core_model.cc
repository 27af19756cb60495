#include "cpu/core_model.hh"

namespace uqsim::cpu {

CoreModel
CoreModel::xeon()
{
    CoreModel m;
    m.name = "Xeon";
    m.issueWidth = 4.0;
    m.inOrder = false;
    m.stallHiding = 0.45;
    m.nominalFreqMhz = 2400.0;
    m.minFreqMhz = 1000.0;
    m.coresPerServer = 40;
    m.l1iCapacityKb = 32.0;
    return m;
}

CoreModel
CoreModel::xeonAt1800()
{
    CoreModel m = xeon();
    m.name = "Xeon@1.8";
    m.nominalFreqMhz = 1800.0;
    return m;
}

CoreModel
CoreModel::thunderx()
{
    CoreModel m;
    m.name = "ThunderX";
    m.issueWidth = 2.0;
    m.inOrder = true;
    m.stallHiding = 0.0;
    m.nominalFreqMhz = 1800.0;
    m.minFreqMhz = 1800.0;
    m.coresPerServer = 96;
    m.l1iCapacityKb = 78.0; // 78KB I-cache per ThunderX core
    return m;
}

CoreModel
CoreModel::edgeArm()
{
    CoreModel m;
    m.name = "EdgeARM";
    m.issueWidth = 2.0;
    m.inOrder = true;
    m.stallHiding = 0.0;
    m.nominalFreqMhz = 1000.0;
    m.minFreqMhz = 600.0;
    m.coresPerServer = 4;
    m.l1iCapacityKb = 32.0;
    return m;
}

} // namespace uqsim::cpu
