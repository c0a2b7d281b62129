"""Web layer: markdown, router, sessions, views, the app routes."""

import pytest

from repro.cluster import ManualClock
from repro.core import WebGPU
from repro.core.course import CourseOffering
from repro.labs import get_lab
from repro.web import (
    Request,
    Router,
    Response,
    SessionManager,
    WebGpuApp,
    render_attempts_view,
    render_code_view,
    render_description_view,
    render_history_view,
    render_markdown,
    render_roster_view,
)
from repro.web.auth import AuthError

VECADD = get_lab("vector-add")


class TestMarkdown:
    def test_headers(self):
        assert "<h1>Title</h1>" in render_markdown("# Title")
        assert "<h3>Sub</h3>" in render_markdown("### Sub")

    def test_paragraph_joining(self):
        html = render_markdown("line one\nline two\n\nnext para")
        assert html.count("<p>") == 2
        assert "line one line two" in html

    def test_inline_markup(self):
        html = render_markdown("use `cudaMalloc` and **check** *errors*")
        assert "<code>cudaMalloc</code>" in html
        assert "<strong>check</strong>" in html
        assert "<em>errors</em>" in html

    def test_links(self):
        html = render_markdown("[libwb](https://github.com/abduld/libwb)")
        assert '<a href="https://github.com/abduld/libwb">libwb</a>' in html

    def test_lists(self):
        html = render_markdown("- one\n- two\n\n1. first\n2. second")
        assert html.count("<li>") == 4
        assert "<ul>" in html and "<ol>" in html

    def test_fenced_code_blocks_escaped(self):
        html = render_markdown("```\nif (a < b) x = &y;\n```")
        assert "<pre><code>" in html
        assert "&lt;" in html and "&amp;" in html

    def test_html_injection_escaped(self):
        html = render_markdown("<script>alert(1)</script>")
        assert "<script>" not in html

    def test_unterminated_fence_still_renders(self):
        html = render_markdown("```\ncode")
        assert "code" in html


class TestRouter:
    def test_placeholder_extraction(self):
        router = Router()
        router.add("GET", "/lab/<slug>/code",
                   lambda req: Response(body=req.params["slug"]))
        response = router.dispatch(Request("GET", "/lab/vector-add/code"))
        assert response.body == "vector-add"

    def test_404(self):
        router = Router()
        assert router.dispatch(Request("GET", "/nope")).status == 404

    def test_method_mismatch_404(self):
        router = Router()
        router.add("POST", "/x", lambda req: Response())
        assert router.dispatch(Request("GET", "/x")).status == 404

    def test_http_error_becomes_status(self):
        from repro.web import HttpError
        router = Router()

        def handler(req):
            raise HttpError(403, "no")

        router.add("GET", "/x", handler)
        assert router.dispatch(Request("GET", "/x")).status == 403


class TestSessions:
    @pytest.fixture
    def users(self):
        from repro.core.users import UserStore
        from repro.db import Database
        store = UserStore(Database())
        store.register("a@x.com", "Ana", "pw")
        return store

    def test_login_and_authenticate(self, users):
        sm = SessionManager(users)
        session = sm.login("a@x.com", "pw", now=0.0)
        assert sm.authenticate(session.token, now=100.0).email == "a@x.com"

    def test_bad_password(self, users):
        sm = SessionManager(users)
        with pytest.raises(AuthError):
            sm.login("a@x.com", "wrong", now=0.0)

    def test_expiry(self, users):
        sm = SessionManager(users, ttl_s=60.0)
        session = sm.login("a@x.com", "pw", now=0.0)
        with pytest.raises(AuthError, match="expired"):
            sm.authenticate(session.token, now=61.0)

    def test_logout(self, users):
        sm = SessionManager(users)
        session = sm.login("a@x.com", "pw", now=0.0)
        sm.logout(session.token)
        with pytest.raises(AuthError):
            sm.authenticate(session.token, now=1.0)

    def test_device_share_tracking(self, users):
        """The paper: ~2% of logins came from tablets and phones."""
        sm = SessionManager(users)
        for i in range(49):
            sm.login("a@x.com", "pw", now=float(i))
        sm.login("a@x.com", "pw", now=50.0, device_class="tablet")
        assert sm.device_share("tablet") == pytest.approx(0.02)


class TestViewRendering:
    def test_description_includes_rubric(self):
        html = render_description_view(VECADD)
        assert "<h1>Vector Addition</h1>" in html
        assert "Rubric".lower() in html.lower() or "rubric" in html
        assert "80" in html and "Total" in html

    def test_code_view_escapes_source_and_lists_datasets(self):
        html = render_code_view(VECADD, "if (a < b) { }")
        assert "a &lt; b" in html
        assert html.count("<option") == len(VECADD.dataset_sizes)
        assert "Submit for Grading" in html

    def test_attempts_view_share_gating(self):
        from repro.core.submission import Attempt, SubmissionKind
        attempt = Attempt(
            attempt_id=1, user_id=1, lab="vector-add",
            kind=SubmissionKind.RUN, revision_id=1, dataset_index=0,
            submitted_at=5.0, status="completed", compile_ok=True,
            correct=True, report="Solution is correct.")
        before = render_attempts_view(VECADD, [attempt],
                                      deadline_passed=False)
        after = render_attempts_view(VECADD, [attempt], deadline_passed=True)
        assert "shareable after deadline" in before
        assert "/shared/attempt/1" in after

    def test_history_view_shows_snippets(self):
        from repro.core.history import Revision
        revision = Revision(revision_id=3, user_id=1, lab="vector-add",
                            source="line A\nline B", saved_at=9.0,
                            reason="autosave")
        html = render_history_view(VECADD, [revision])
        assert "line A" in html and "rev 3" in html

    def test_roster_view(self):
        from repro.core.instructor import RosterRow
        row = RosterRow(user_id=1, name="Stu", email="s@x.com", attempts=4,
                        last_submission_at=100.0, program_grade=88.0,
                        question_grade=10.0, total_grade=98.0)
        html = render_roster_view(VECADD, [row])
        assert "s@x.com" in html and "98.0" in html and "4 attempt" in html


class TestAppRoutes:
    @pytest.fixture
    def app(self):
        clock = ManualClock()
        platform = WebGPU(clock=clock)
        course = platform.create_course(
            CourseOffering(code="HPP", year=2015,
                           deadlines={"vector-add": 1000.0}),
            ["vector-add"])
        student = platform.users.register("s@x.com", "Stu", "pw")
        course.enroll(student.user_id)
        return WebGpuApp(platform, "HPP-2015"), clock

    def login(self, app):
        response = app.handle(Request("POST", "/login", form={
            "email": "s@x.com", "password": "pw"}))
        assert response.ok
        return response.body

    def test_requires_auth(self, app):
        app, _ = app
        assert app.handle(
            Request("GET", "/lab/vector-add/code")).status == 401

    def test_bad_login(self, app):
        app, _ = app
        response = app.handle(Request("POST", "/login", form={
            "email": "s@x.com", "password": "nope"}))
        assert response.status == 401

    def test_code_view_serves_skeleton_then_saved(self, app):
        app, _ = app
        token = self.login(app)
        first = app.handle(Request("GET", "/lab/vector-add/code",
                                   session_token=token))
        assert "Insert code" in first.body
        app.handle(Request("POST", "/lab/vector-add/code",
                           form={"source": "int main() { return 0; }"},
                           session_token=token))
        second = app.handle(Request("GET", "/lab/vector-add/code",
                                    session_token=token))
        assert "int main()" in second.body

    def test_run_and_attempts_flow(self, app):
        app, clock = app
        token = self.login(app)
        app.handle(Request("POST", "/lab/vector-add/code",
                           form={"source": VECADD.solution},
                           session_token=token))
        clock.advance(30)
        run = app.handle(Request("POST", "/lab/vector-add/run",
                                 form={"dataset": "0"},
                                 session_token=token))
        assert run.body.startswith("correct")
        attempts = app.handle(Request("GET", "/lab/vector-add/attempts",
                                      session_token=token))
        assert "correct" in attempts.body

    def test_submit_returns_grade(self, app):
        app, clock = app
        token = self.login(app)
        app.handle(Request("POST", "/lab/vector-add/code",
                           form={"source": VECADD.solution},
                           session_token=token))
        clock.advance(30)
        response = app.handle(Request("POST", "/lab/vector-add/submit",
                                      session_token=token))
        assert response.body.startswith("grade: 90.0")  # question unanswered

    def test_questions_answers_and_profile(self, app):
        app, _ = app
        token = self.login(app)

        def get(path):
            return app.handle(Request("GET", path, session_token=token))

        def answer(index, text):
            return app.handle(Request(
                "POST", f"/lab/vector-add/questions/{index}",
                form={"answer": text}, session_token=token))

        assert "No profiled kernel launches yet" in get(
            "/lab/vector-add/profile").body
        assert answer(0, "the grid overshoots").body == "saved"
        assert answer(9, "no such question").status == 400
        assert "the grid overshoots" in get("/lab/vector-add/questions").body
        app.handle(Request("POST", "/lab/vector-add/code",
                           form={"source": VECADD.solution},
                           session_token=token))
        assert "Hottest lines" in get("/lab/vector-add/profile").body

    def test_rate_limit_is_429(self, app):
        app, _ = app
        token = self.login(app)
        app.handle(Request("POST", "/lab/vector-add/code",
                           form={"source": VECADD.solution},
                           session_token=token))
        statuses = set()
        for _ in range(8):
            r = app.handle(Request("POST", "/lab/vector-add/compile",
                                   session_token=token))
            statuses.add(r.status)
        assert 429 in statuses

    def test_roster_forbidden_for_students(self, app):
        app, _ = app
        token = self.login(app)
        response = app.handle(Request("GET", "/instructor/vector-add/roster",
                                      session_token=token))
        assert response.status == 403

    def test_unknown_lab_404(self, app):
        app, _ = app
        token = self.login(app)
        response = app.handle(Request("GET", "/lab/bogus/code",
                                      session_token=token))
        assert response.status == 404
