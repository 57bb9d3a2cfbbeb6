"""Paper-scale run of the paper's tables and figures (600 VMs, one
evaluated week), written to ``full_run.json`` beside this script.

Compare with the paper's numbers in :mod:`repro.anchors` and README's
"Reproduction vs the paper" table.  Run from the repository root with
``PYTHONPATH=src python results/full_run.py``.
"""
import json
import os
import time
from repro.experiments.fig456 import run_fig456
from repro.experiments.fig7 import run_fig7
from repro.experiments.table1 import run_table1
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.dcsim import energy_savings_pct

t0 = time.time()
out = {}

t1 = run_table1()
out['table1'] = {'max_rel_err_pct': t1.max_relative_error()*100,
                 'speedups': t1.speedups_vs_thunderx}
f1 = run_fig1()
out['fig1'] = {'ntc_optima': {u: p.freq_ghz for u, p in f1.ntc_optima.items()},
               'ntc_power_kw': {u: p.power_kw for u, p in f1.ntc_optima.items()},
               'conv_optima': {u: p.freq_ghz for u, p in f1.conventional_optima.items()}}
f2 = run_fig2()
out['fig2'] = {'floors': f2.qos_floors_ghz,
               'norm_at_2ghz': {lbl: f2.normalized_at(lbl, 2.0) for lbl in f2.sweeps}}
f3 = run_fig3()
out['fig3'] = {'peaks_ghz': f3.peak_frequencies(),
               'peaks_buipsw': {lbl: f3.peak(lbl).buips_per_watt for lbl in f3.curves}}

r = run_fig456(n_vms=600, n_days=14, seed=2018, max_servers=600)
s_coat = energy_savings_pct(r.epact, r.coat)
s_opt = energy_savings_pct(r.epact, r.coat_opt)
out['fig456'] = {
    'n_slots': r.epact.n_slots,
    'epact_energy_mj': r.epact.total_energy_mj,
    'coat_energy_mj': r.coat.total_energy_mj,
    'coatopt_energy_mj': r.coat_opt.total_energy_mj,
    'total_saving_vs_coat_pct': r.total_saving_vs_coat_pct(),
    'best_slot_saving_vs_coat_pct': r.best_saving_vs_coat_pct(),
    'worst_slot_saving_vs_coat_pct': float(s_coat.min()),
    'total_saving_vs_coatopt_pct': r.total_saving_vs_coat_opt_pct(),
    'slot_saving_vs_coatopt_range': [float(s_opt.min()), float(s_opt.max())],
    'server_reduction_coat_vs_epact_pct': r.server_reduction_coat_vs_epact_pct(),
    'violations': {'EPACT': r.epact.total_violations, 'COAT': r.coat.total_violations,
                   'COAT-OPT': r.coat_opt.total_violations},
    'viol_per_slot_max': {'EPACT': int(r.epact.violations_per_slot.max()),
                          'COAT': int(r.coat.violations_per_slot.max()),
                          'COAT-OPT': int(r.coat_opt.violations_per_slot.max())},
    'active_servers': {'EPACT': [int(r.epact.active_servers_per_slot.min()), float(r.epact.mean_active_servers), int(r.epact.active_servers_per_slot.max())],
                       'COAT': [int(r.coat.active_servers_per_slot.min()), float(r.coat.mean_active_servers), int(r.coat.active_servers_per_slot.max())],
                       'COAT-OPT': [int(r.coat_opt.active_servers_per_slot.min()), float(r.coat_opt.mean_active_servers), int(r.coat_opt.active_servers_per_slot.max())]},
    'energy_per_slot_mj': {'EPACT': [float(r.epact.energy_mj_per_slot.min()), float(r.epact.energy_mj_per_slot.max())],
                           'COAT': [float(r.coat.energy_mj_per_slot.min()), float(r.coat.energy_mj_per_slot.max())]},
    'epact_cases': r.epact.case_counts(),
}

f7 = run_fig7(n_vms=600, n_days=14, seed=2018, n_slots=96)
out['fig7'] = {'points': [(p.static_w, p.saving_pct, p.epact_optimal_freq_ghz) for p in f7.points]}

out['runtime_s'] = time.time() - t0
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), 'full_run.json'), 'w') as fh:
    json.dump(out, fh, indent=1)
print('DONE in %.0fs' % out['runtime_s'])
