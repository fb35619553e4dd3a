"""Tests for the XML provenance dialect, diff→actions patches, and the CLI."""

import pytest

from repro.cli import main
from repro.core import ProvenanceManager, run_from_xml, run_to_xml
from repro.evolution import (Vistrail, diff_to_actions, diff_workflows,
                             record_as_version)
from repro.workflow import Module, Workflow
from repro.workloads import build_fig2_pair, build_vis_workflow


@pytest.fixture(scope="module")
def vis_run():
    manager = ProvenanceManager()
    workflow = build_vis_workflow(size=8)
    run = manager.run(workflow, tags={"campaign": "xml-test"})
    return workflow, run


class TestXmlProvenance:
    def test_roundtrip_identity(self, vis_run):
        _, run = vis_run
        restored = run_from_xml(run_to_xml(run))
        assert restored.id == run.id
        assert restored.status == run.status
        assert restored.workflow_signature == run.workflow_signature
        assert restored.tags == run.tags
        assert len(restored.executions) == len(run.executions)
        assert set(restored.artifacts) == set(run.artifacts)

    def test_roundtrip_execution_details(self, vis_run):
        _, run = vis_run
        restored = run_from_xml(run_to_xml(run))
        for original, copy in zip(run.executions, restored.executions):
            assert copy.parameters == original.parameters
            assert copy.input_artifacts() == original.input_artifacts()
            assert copy.output_artifacts() == original.output_artifacts()
            assert copy.started == original.started

    def test_roundtrip_spec_embedded(self, vis_run):
        workflow, run = vis_run
        restored = run_from_xml(run_to_xml(run))
        assert restored.workflow_spec == run.workflow_spec

    def test_error_text_preserved(self):
        manager = ProvenanceManager()
        workflow = manager.new_workflow("failing")
        manager.add_module(workflow, "FailIf",
                           parameters={"fail": True,
                                       "message": "xml check"})
        run = manager.run(workflow)
        restored = run_from_xml(run_to_xml(run))
        assert "xml check" in restored.executions[0].error

    def test_rejects_wrong_document(self):
        with pytest.raises(ValueError):
            run_from_xml("<notarun/>")

    def test_xml_is_valid_and_parsable(self, vis_run):
        import xml.etree.ElementTree as ET
        _, run = vis_run
        root = ET.fromstring(run_to_xml(run))
        assert root.tag == "run"
        assert root.find("executions") is not None


class TestDiffToActions:
    def test_patch_reproduces_target(self):
        before, after = build_fig2_pair()
        diff = diff_workflows(before, after)
        actions = diff_to_actions(diff, before, after)
        patched = before.copy()
        for action in actions:
            action.apply(patched)
        assert patched.signature() == after.signature()

    def test_patch_with_deletion(self):
        before, after = build_fig2_pair()
        # reverse direction: after -> before deletes the smoother
        diff = diff_workflows(after, before)
        actions = diff_to_actions(diff, after, before)
        patched = after.copy()
        for action in actions:
            action.apply(patched)
        assert patched.signature() == before.signature()

    def test_patch_with_parameter_and_rename(self):
        before = build_vis_workflow(size=8)
        after = before.copy()
        iso = next(m for m in after.modules.values() if m.name == "iso")
        after.set_parameter(iso.id, "level", 55.0)
        after.rename_module(iso.id, "isosurface")
        diff = diff_workflows(before, after)
        actions = diff_to_actions(diff, before, after)
        patched = before.copy()
        for action in actions:
            action.apply(patched)
        assert patched.signature() == after.signature()
        assert patched.modules[iso.id].name == "isosurface"

    def test_empty_diff_empty_patch(self):
        workflow = build_vis_workflow(size=8)
        diff = diff_workflows(workflow, workflow.copy())
        assert diff_to_actions(diff, workflow, workflow.copy()) == []

    def test_record_as_version(self):
        before, after = build_fig2_pair()
        vistrail = Vistrail("recording")
        # seed the vistrail with the 'before' state via a recorded diff
        v1 = record_as_version(vistrail, before, tag="before")
        assert vistrail.materialize(v1).signature() \
            == before.signature()
        v2 = record_as_version(vistrail, after, parent=v1, tag="after")
        assert vistrail.materialize(v2).signature() \
            == after.signature()
        assert vistrail.common_ancestor(v1, v2) == v1

    def test_record_identical_returns_same_version(self):
        workflow = build_vis_workflow(size=8)
        vistrail = Vistrail("same")
        v1 = record_as_version(vistrail, workflow)
        v2 = record_as_version(vistrail, workflow.copy(), parent=v1)
        assert v1 == v2


class TestCli:
    def test_modules_lists_types(self, capsys):
        assert main(["modules"]) == 0
        output = capsys.readouterr().out
        assert "AlignWarp" in output
        assert "LoadVolume" in output

    def test_recipe(self, capsys):
        assert main(["recipe", "--size", "8"]) == 0
        output = capsys.readouterr().out
        assert "Recipe" in output
        assert "load" in output

    def test_demo(self, capsys):
        assert main(["demo", "--size", "8"]) == 0
        output = capsys.readouterr().out
        assert "status: ok" in output

    @pytest.mark.parametrize("flag,value", [("--capture-queue", "8"),
                                            ("--capture-policy", "block")])
    def test_demo_has_no_batched_capture_flags(self, capsys, flag, value):
        # capture is synchronous only; the batched-mode flags are gone
        with pytest.raises(SystemExit) as exit_info:
            main(["demo", "--size", "4", flag, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_query(self, capsys):
        assert main(["query", "COUNT EXECUTIONS"]) == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_query_table_rendering(self, capsys):
        assert main(["query",
                     "EXECUTIONS WHERE module.type = 'LoadVolume'"]) == 0
        output = capsys.readouterr().out
        assert "module.type" in output

    def test_challenge(self, capsys):
        assert main(["challenge", "--size", "8"]) == 0
        output = capsys.readouterr().out
        assert output.count("q") >= 9

    def test_challenge2(self, capsys):
        assert main(["challenge2", "--size", "8"]) == 0
        output = capsys.readouterr().out
        assert "chimera, karma, taverna" in output

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
